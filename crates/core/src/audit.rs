//! Mode-decision audit trail.
//!
//! The paper's §7.1 machinery makes a *decision* for every outgoing packet
//! — which of the four delivery methods to use — and revises it from
//! transmission feedback. The policy code records what it decided; this
//! module records *why*, with a timestamped, machine-readable event for
//! every policy-table lookup, method-cache transition, registration step
//! and handoff, so experiments can assert causal sequences ("the first
//! lookup missed the cache and chose Out-DH from the optimistic default;
//! two retransmission signals later it was demoted to Out-DE") instead of
//! eyeballing counters.
//!
//! The trail is a bounded ring buffer: recording never allocates without
//! bound, and shed entries are counted so a truncated history is visible
//! as such.

use std::collections::VecDeque;

use netsim::{Ipv4Addr, SimTime};
use serde::{JsonWriter, Serialize};

use crate::modes::OutMode;

/// Where a freshly decided mode came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Privacy mode forces Out-IE for everything (§4).
    Privacy,
    /// A §7.1.2 address/mask rule matched the correspondent.
    Rule,
    /// No rule matched; the configured default strategy applied.
    Default,
    /// An existing method-cache entry was reused ("the mobile host keeps a
    /// cache of the currently selected delivery method", §7.1).
    CacheHit,
}

impl DecisionReason {
    fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Privacy => "privacy",
            DecisionReason::Rule => "rule",
            DecisionReason::Default => "default",
            DecisionReason::CacheHit => "cache-hit",
        }
    }
}

/// One recorded policy-layer happening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// A policy-table lookup chose `mode` for `correspondent`.
    Decision {
        /// The destination being decided for.
        correspondent: Ipv4Addr,
        /// The method selected.
        mode: OutMode,
        /// Why this method: cache hit, rule, default, or privacy.
        reason: DecisionReason,
    },
    /// The §7.1.1 port heuristic sent a conversation Out-DT, bypassing the
    /// method cache entirely.
    DtPortShortCircuit {
        /// The destination of the conversation.
        correspondent: Ipv4Addr,
        /// The destination port that matched (e.g. 80, 53).
        port: u16,
    },
    /// Failure signals demoted the method one step toward Out-IE (§7.1.2).
    Demoted {
        /// The correspondent whose method moved.
        correspondent: Ipv4Addr,
        /// The method that was failing.
        from: OutMode,
        /// The more conservative replacement.
        to: OutMode,
    },
    /// Sustained success probed a more aggressive method.
    Promoted {
        /// The correspondent whose method moved.
        correspondent: Ipv4Addr,
        /// The method that kept succeeding.
        from: OutMode,
        /// The more aggressive probe now in effect.
        to: OutMode,
    },
    /// The method cache was emptied (normally on movement: the filtering
    /// landscape has changed, so old conclusions are stale).
    CacheCleared {
        /// How many entries were discarded.
        entries: usize,
    },
    /// The method cache was at capacity and the LRU discipline displaced
    /// its coldest correspondent to admit a new one. Learned history for
    /// `correspondent` is gone; its next contact decides afresh.
    Evicted {
        /// The correspondent whose entry was displaced.
        correspondent: Ipv4Addr,
        /// The method that was in effect when the entry was displaced.
        mode: OutMode,
    },
    /// Transmission feedback arrived for a correspondent absent from the
    /// method cache after evictions have occurred: the signal may concern
    /// history the LRU displaced, and is dropped.
    FeedbackIgnored {
        /// The correspondent the feedback concerned.
        correspondent: Ipv4Addr,
    },
    /// A registration request left the mobile host.
    RegistrationSent {
        /// The care-of address being registered.
        care_of: Ipv4Addr,
        /// Requested binding lifetime, seconds; 0 deregisters.
        lifetime: u16,
    },
    /// The home agent accepted a registration.
    RegistrationAccepted {
        /// The granted binding lifetime, seconds.
        lifetime: u16,
    },
    /// The home agent denied a registration.
    RegistrationDenied,
    /// Registration abandoned after exhausting retries.
    RegistrationTimeout,
    /// The mobile host changed location. `None` means it returned home.
    Handoff {
        /// The new care-of address, or `None` at home.
        care_of: Option<Ipv4Addr>,
    },
}

impl AuditEvent {
    /// The short machine-readable tag identifying the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditEvent::Decision { .. } => "decision",
            AuditEvent::DtPortShortCircuit { .. } => "dt-port",
            AuditEvent::Demoted { .. } => "demoted",
            AuditEvent::Promoted { .. } => "promoted",
            AuditEvent::CacheCleared { .. } => "cache-cleared",
            AuditEvent::Evicted { .. } => "evicted",
            AuditEvent::FeedbackIgnored { .. } => "feedback-ignored",
            AuditEvent::RegistrationSent { .. } => "registration-sent",
            AuditEvent::RegistrationAccepted { .. } => "registration-accepted",
            AuditEvent::RegistrationDenied => "registration-denied",
            AuditEvent::RegistrationTimeout => "registration-timeout",
            AuditEvent::Handoff { .. } => "handoff",
        }
    }

    /// The correspondent this event concerns, when it concerns one.
    pub fn correspondent(&self) -> Option<Ipv4Addr> {
        match *self {
            AuditEvent::Decision { correspondent, .. }
            | AuditEvent::DtPortShortCircuit { correspondent, .. }
            | AuditEvent::Demoted { correspondent, .. }
            | AuditEvent::Promoted { correspondent, .. }
            | AuditEvent::Evicted { correspondent, .. }
            | AuditEvent::FeedbackIgnored { correspondent } => Some(correspondent),
            _ => None,
        }
    }
}

impl AuditEvent {
    /// The members this event contributes to its entry's JSON object.
    fn write_fields(&self, w: &mut JsonWriter) {
        w.field("kind", self.kind());
        match *self {
            AuditEvent::Decision {
                correspondent,
                mode,
                reason,
            } => {
                w.field("correspondent", &correspondent);
                w.field("mode", &mode);
                w.field("reason", reason.as_str());
            }
            AuditEvent::DtPortShortCircuit {
                correspondent,
                port,
            } => {
                w.field("correspondent", &correspondent);
                w.field("port", &port);
            }
            AuditEvent::Demoted {
                correspondent,
                from,
                to,
            }
            | AuditEvent::Promoted {
                correspondent,
                from,
                to,
            } => {
                w.field("correspondent", &correspondent);
                w.field("from", &from);
                w.field("to", &to);
            }
            AuditEvent::CacheCleared { entries } => w.field("entries", &entries),
            AuditEvent::Evicted {
                correspondent,
                mode,
            } => {
                w.field("correspondent", &correspondent);
                w.field("mode", &mode);
            }
            AuditEvent::FeedbackIgnored { correspondent } => {
                w.field("correspondent", &correspondent);
            }
            AuditEvent::RegistrationSent { care_of, lifetime } => {
                w.field("care_of", &care_of);
                w.field("lifetime", &lifetime);
            }
            AuditEvent::RegistrationAccepted { lifetime } => w.field("lifetime", &lifetime),
            AuditEvent::RegistrationDenied | AuditEvent::RegistrationTimeout => {}
            AuditEvent::Handoff { care_of } => w.field("care_of", &care_of),
        }
    }
}

impl Serialize for AuditEvent {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| self.write_fields(w));
    }
}

/// One timestamped entry in the trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEntry {
    /// Simulated time the event was recorded.
    pub at: SimTime,
    /// What happened.
    pub event: AuditEvent,
}

impl Serialize for AuditEntry {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("t_us", &self.at.0);
            self.event.write_fields(w);
        });
    }
}

/// Default ring capacity: plenty for any experiment's decision history
/// while bounding a long-running simulation.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// The bounded, timestamped event trail kept by a [`crate::Policy`].
#[derive(Debug)]
pub struct AuditTrail {
    entries: VecDeque<AuditEntry>,
    capacity: usize,
    shed: u64,
    now: SimTime,
}

impl Default for AuditTrail {
    fn default() -> Self {
        AuditTrail::new()
    }
}

impl AuditTrail {
    /// An empty trail with the default capacity.
    pub fn new() -> AuditTrail {
        AuditTrail::with_capacity(DEFAULT_AUDIT_CAPACITY)
    }

    /// An empty trail keeping at most `capacity` entries (oldest shed).
    pub fn with_capacity(capacity: usize) -> AuditTrail {
        AuditTrail {
            entries: VecDeque::new(),
            capacity,
            shed: 0,
            now: SimTime::ZERO,
        }
    }

    /// Update the clock stamped onto subsequently recorded events. The
    /// policy layer itself has no notion of time; the mobility hook calls
    /// this whenever the simulator hands it the current time.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Append one event at the current clock.
    pub(crate) fn record(&mut self, event: AuditEvent) {
        if self.capacity == 0 {
            self.shed += 1;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.shed += 1;
        }
        self.entries.push_back(AuditEntry {
            at: self.now,
            event,
        });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries.iter()
    }

    /// Retained entries concerning one correspondent, oldest first.
    pub fn for_correspondent(&self, correspondent: Ipv4Addr) -> impl Iterator<Item = &AuditEntry> {
        self.entries
            .iter()
            .filter(move |e| e.event.correspondent() == Some(correspondent))
    }

    /// The modes chosen for `correspondent`, in decision order.
    pub fn decisions_for(&self, correspondent: Ipv4Addr) -> Vec<OutMode> {
        self.entries
            .iter()
            .filter_map(|e| match e.event {
                AuditEvent::Decision {
                    correspondent: c,
                    mode,
                    ..
                } if c == correspondent => Some(mode),
                _ => None,
            })
            .collect()
    }

    /// The most recent decision for `correspondent`: the answer to "which
    /// mode is in use, and why?".
    pub fn last_decision(&self, correspondent: Ipv4Addr) -> Option<(OutMode, DecisionReason)> {
        self.entries.iter().rev().find_map(|e| match e.event {
            AuditEvent::Decision {
                correspondent: c,
                mode,
                reason,
            } if c == correspondent => Some((mode, reason)),
            _ => None,
        })
    }

    /// Every demotion/promotion, oldest first.
    pub fn transitions(&self) -> Vec<AuditEntry> {
        self.entries
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    AuditEvent::Demoted { .. } | AuditEvent::Promoted { .. }
                )
            })
            .copied()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the trail empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Total events ever recorded, retained or shed.
    pub fn recorded(&self) -> u64 {
        self.entries.len() as u64 + self.shed
    }

    /// The ring's capacity: the most entries it will retain.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forget everything recorded so far (capacity and clock kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.shed = 0;
    }
}

impl Serialize for AuditTrail {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("entries");
            w.seq(&self.entries);
            w.field("shed", &self.shed);
            if self.shed > 0 {
                // A truncated history must be legible as such: say how big
                // the window was and how much passed through it. Omitted
                // when nothing was shed so untruncated reports stay
                // byte-stable.
                w.field("capacity", &self.capacity);
                w.field("recorded", &self.recorded());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn decision(c: &str, mode: OutMode, reason: DecisionReason) -> AuditEvent {
        AuditEvent::Decision {
            correspondent: ip(c),
            mode,
            reason,
        }
    }

    #[test]
    fn records_carry_the_last_set_clock() {
        let mut t = AuditTrail::new();
        t.set_now(SimTime(500));
        t.record(decision("10.0.0.1", OutMode::DH, DecisionReason::Default));
        t.set_now(SimTime(900));
        t.record(AuditEvent::RegistrationDenied);
        let at: Vec<u64> = t.entries().map(|e| e.at.0).collect();
        assert_eq!(at, vec![500, 900]);
    }

    #[test]
    fn ring_sheds_oldest_and_counts() {
        let mut t = AuditTrail::with_capacity(2);
        for i in 0..5u16 {
            t.record(AuditEvent::RegistrationAccepted { lifetime: i });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.shed(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.capacity(), 2);
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\"recorded\":5"), "{json}");
        let kept: Vec<u16> = t
            .entries()
            .map(|e| match e.event {
                AuditEvent::RegistrationAccepted { lifetime } => lifetime,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_sheds_each_event_once() {
        let mut t = AuditTrail::with_capacity(0);
        for _ in 0..3 {
            t.record(decision("10.0.0.1", OutMode::DH, DecisionReason::Default));
        }
        assert!(t.is_empty());
        assert_eq!(t.shed(), 3);
        assert_eq!(t.recorded(), 3);
    }

    #[test]
    fn queries_filter_by_correspondent() {
        let mut t = AuditTrail::new();
        t.record(decision("10.0.0.1", OutMode::DH, DecisionReason::Default));
        t.record(decision("10.0.0.2", OutMode::IE, DecisionReason::Rule));
        t.record(AuditEvent::Demoted {
            correspondent: ip("10.0.0.1"),
            from: OutMode::DH,
            to: OutMode::DE,
        });
        t.record(decision("10.0.0.1", OutMode::DE, DecisionReason::CacheHit));
        assert_eq!(
            t.decisions_for(ip("10.0.0.1")),
            vec![OutMode::DH, OutMode::DE]
        );
        assert_eq!(
            t.last_decision(ip("10.0.0.1")),
            Some((OutMode::DE, DecisionReason::CacheHit))
        );
        assert_eq!(
            t.last_decision(ip("10.0.0.2")),
            Some((OutMode::IE, DecisionReason::Rule))
        );
        assert_eq!(t.for_correspondent(ip("10.0.0.1")).count(), 3);
        assert_eq!(t.transitions().len(), 1);
    }

    #[test]
    fn serializes_to_tagged_objects() {
        let mut t = AuditTrail::new();
        t.set_now(SimTime(42));
        t.record(decision("10.0.0.9", OutMode::IE, DecisionReason::Privacy));
        let json = serde_json::to_string(&t).unwrap();
        // Untruncated trails omit the capacity fields: reports from runs
        // that never shed stay byte-identical.
        assert!(!json.contains("capacity"), "{json}");
        assert!(json.contains("\"t_us\":42"), "{json}");
        assert!(json.contains("\"kind\":\"decision\""), "{json}");
        assert!(json.contains("\"mode\":\"Out-IE\""), "{json}");
        assert!(json.contains("\"reason\":\"privacy\""), "{json}");
    }
}

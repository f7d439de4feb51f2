//! Policy-engine-at-scale invariants, end to end:
//!
//! * below capacity, the capped-LRU method cache is *observationally
//!   identical* to an unbounded one — same mode for every decision, same
//!   transitions, same audit trail, byte for byte, with and without a
//!   compiled rule list and across cache clears (property test);
//! * the E18 policy miss storm — and with it eviction order — is
//!   deterministic: same seed, same outcome;
//! * a million-entry cache at steady state (driven by a 2×-capacity miss
//!   storm, so eviction churn is part of the measurement) stays within
//!   its memory budget of 64 B per correspondent, measured
//!   by the counting allocator's live-byte gauge.
//!
//! The storm and memory tests share process-global state (the live-byte
//! gauge the memory test reads), so they serialize on one lock.

use std::sync::Mutex;

use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
use mobility4x4::mip_core::Strategy as Method;
use mobility4x4::mip_core::{AuditTrail, OutMode, Policy, PolicyConfig, Transition};
use mobility4x4::netsim::{self, Ipv4Addr, Ipv4Cidr, SimTime};
use proptest::prelude::*;

static GLOBAL: Mutex<()> = Mutex::new(());

/// One scripted policy op against a small correspondent population.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `mode_for(addr)` — decide (and cache) the method.
    Decide(u8),
    /// `record_feedback(addr, retransmission)`.
    Feedback(u8, bool),
    /// `clear_cache()` — the mobile moved.
    Clear,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..24, 0u8..9).prop_map(|(a, kind)| match kind {
            0..=3 => Op::Decide(a),
            4 | 5 => Op::Feedback(a, true),
            6 | 7 => Op::Feedback(a, false),
            _ => Op::Clear,
        }),
        1..200,
    )
}

fn addr(i: u8) -> Ipv4Addr {
    Ipv4Addr(0x0A63_0000 | u32::from(i))
}

/// Twelve rules over the population — past the linear-scan threshold, so
/// decisions go through the compiled index. Rule 0 (a /29) shadows the
/// /31s after it that it covers; first match must still win.
fn twelve_rules() -> Vec<(Ipv4Cidr, Method)> {
    let strategies = [
        Method::Pessimistic,
        Method::Optimistic,
        Method::Fixed(OutMode::DE),
    ];
    std::iter::once((Ipv4Cidr::new(addr(16), 29), Method::Fixed(OutMode::IE)))
        .chain((0..11u8).map(|k| {
            (
                Ipv4Cidr::new(addr(2 * k), 31),
                strategies[usize::from(k) % 3],
            )
        }))
        .collect()
}

/// Replay `ops` against a policy with the given cache cap (`0` =
/// unbounded) and rule list, and fingerprint everything observable: every
/// decision, every transition, and the serialized audit trail.
fn replay(
    cache_cap: usize,
    rules: &[(Ipv4Cidr, Method)],
    ops: &[Op],
) -> (Vec<String>, Vec<Option<Transition>>, String) {
    let mut p = Policy::new(PolicyConfig {
        cache_cap,
        rules: rules.to_vec(),
        ..PolicyConfig::optimistic()
    });
    let mut modes = Vec::new();
    let mut transitions = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        p.audit.set_now(SimTime(i as u64));
        match *op {
            Op::Decide(a) => modes.push(p.mode_for(addr(a)).to_string()),
            Op::Feedback(a, retrans) => transitions.push(p.record_feedback(addr(a), retrans)),
            Op::Clear => p.clear_cache(),
        }
    }
    assert_eq!(
        p.cache_stats().evictions,
        0,
        "population (≤24) stays below every cap under test"
    );
    let audit = serde_json::to_string(&p.audit).expect("serialize audit");
    (modes, transitions, audit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// While the correspondent population fits in the cache, the capped
    /// LRU engine and an unbounded cache make byte-identical decisions —
    /// eviction is the ONLY behavioural difference capacity introduces,
    /// whether strategies come from the default or from compiled rules.
    #[test]
    fn capped_lru_matches_unbounded_below_capacity(ops in arb_ops()) {
        for rules in [Vec::new(), twelve_rules()] {
            let unbounded = replay(0, &rules, &ops);
            for cap in [32usize, 64, 4096] {
                let capped = replay(cap, &rules, &ops);
                prop_assert_eq!(&unbounded.0, &capped.0, "modes diverged at cap {}", cap);
                prop_assert_eq!(&unbounded.1, &capped.1, "transitions diverged at cap {}", cap);
                prop_assert_eq!(&unbounded.2, &capped.2, "audit diverged at cap {}", cap);
            }
        }
    }
}

/// Fingerprint a full churn run (with the policy miss storm on).
fn churn_fingerprint() -> String {
    let params = ScaleParams {
        seed: 42,
        ..ScaleParams::with_hosts(500)
    };
    let churn = ChurnParams {
        correspondents: 2_048,
        ..ChurnParams::default()
    };
    let (mut w, ix) = build_world(&params);
    let stats = run_churn(&mut w, &ix, &churn);
    format!("{stats:?}")
}

/// Same storm twice. (Name pinned by the test floor; a world has one
/// engine, so the shard sweep this was is a repeat run.)
#[test]
fn policy_storm_is_deterministic_across_shard_counts() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = churn_fingerprint();
    assert!(first.contains("PolicyStormStats"), "storm must have run");
    assert_eq!(
        first,
        churn_fingerprint(),
        "storm outcome (incl. eviction-order-dependent counts) differs between two runs"
    );
}

#[test]
fn million_entry_cache_stays_within_byte_budget() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    // Debug builds pay the same allocation *sizes* but much more time per
    // op, so they stress a tenth of the release-mode population; the
    // per-entry budget is identical.
    let cap: usize = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    };
    let mut p = Policy::new(PolicyConfig {
        cache_cap: cap,
        ..PolicyConfig::optimistic()
    });
    // The trail is for explainability, not bulk storage; drop it from the
    // measurement so the number reported is the cache engine's own cost.
    p.audit = AuditTrail::with_capacity(0);

    let before = netsim::profile::live_bytes();
    // 2× capacity of distinct correspondents: the second half runs at
    // steady state, every insert paired with an LRU eviction, so the
    // measurement includes eviction churn, not just a freshly-filled
    // slab.
    for i in 0..(2 * cap) {
        p.mode_for(Ipv4Addr(0x1000_0000u32.wrapping_add(i as u32)));
    }
    let live = netsim::profile::live_bytes() - before;

    let stats = p.cache_stats();
    assert_eq!(stats.len as usize, cap, "cache pinned at capacity");
    assert_eq!(stats.evictions as usize, cap, "second half all evicted");
    let per_entry = live / cap as i64;
    eprintln!("method cache: {per_entry} B/entry ({live} B live for {cap} entries)");
    assert!(
        per_entry <= 64,
        "steady-state method cache costs {per_entry} B/entry (budget 64, live {live} B for {cap} entries)"
    );
}

//! The timing wheel against the simplest model of its ordering contract.
//!
//! `EventQueue` promises little: events leave in `(at, seq)` order, a
//! batch is every event queued at the earliest instant, a cancel succeeds
//! exactly once and only while its event is still queued, and `pushed ==
//! dispatched + cancelled + len` holds at every moment. [`Model`] says that
//! with a `BTreeMap` and nothing else. Every test here drives the wheel
//! and the model with the same operations and compares every answer —
//! with delays straddling each wheel-level boundary and the 2³² µs
//! overflow horizon.

use std::collections::{BTreeMap, HashMap};

use mobility4x4::netsim::event::{lane_key, node_lane, segment_lane, LANE_EXTERNAL};
use mobility4x4::netsim::{
    EventKind, EventQueue, NodeId, SchedulerStats, SimTime, Timer, TimerHandle, TimerToken,
};
use proptest::prelude::*;

/// `(at, seq, token)` of one dispatched event.
type Fired = (u64, u64, u64);

/// The ordering contract: what is queued, sorted by `(at, seq)`, and which
/// key each cancellable handle names.
#[derive(Default)]
struct Model {
    queued: BTreeMap<(u64, u64), u64>,
    handles: HashMap<TimerHandle, (u64, u64)>,
    stats: SchedulerStats,
}

impl Model {
    fn push(&mut self, at: u64, seq: u64, token: u64, handle: Option<TimerHandle>) {
        assert!(self.queued.insert((at, seq), token).is_none(), "key reused");
        if let Some(h) = handle {
            self.handles.insert(h, (at, seq));
        }
        self.stats.pushed += 1;
    }

    fn cancel(&mut self, h: TimerHandle) -> bool {
        let hit = self.queued.remove(&self.handles[&h]).is_some();
        self.stats.cancelled += u64::from(hit);
        hit
    }

    fn pop(&mut self) -> Option<Fired> {
        let ((at, seq), token) = self.queued.pop_first()?;
        self.stats.dispatched += 1;
        Some((at, seq, token))
    }

    fn pop_batch_until(&mut self, deadline: u64) -> Option<(u64, Vec<Fired>)> {
        let (&(t, _), _) = self.queued.first_key_value()?;
        if t > deadline {
            return None;
        }
        let later = self.queued.split_off(&(t + 1, 0));
        let batch = std::mem::replace(&mut self.queued, later);
        self.stats.dispatched += batch.len() as u64;
        Some((
            t,
            batch.into_iter().map(|((a, s), tok)| (a, s, tok)).collect(),
        ))
    }
}

/// Delays chosen to straddle wheel-level boundaries: level 0 holds
/// sub-2⁸ µs offsets, level 1 sub-2¹⁶, level 2 sub-2²⁴, level 3 sub-2³²,
/// and anything ≥ 2³² lands in the overflow heap.
const DELAYS: &[u64] = &[
    0,
    1,
    2,
    7,
    255,
    256,
    257,
    1_000,
    65_535,
    65_536,
    65_537,
    (1 << 24) - 1,
    1 << 24,
    (1 << 24) + 1,
    123_456_789,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    (1 << 33) + 98_765,
];

fn token_of(kind: &EventKind) -> u64 {
    match kind {
        EventKind::Timer(t) => t.token.0,
        EventKind::Deliver { .. } => unreachable!("these tests only push timers"),
    }
}

/// The wheel and the model fed the same operations. Tokens number the
/// pushes, so `handles[token]` is the handle a cancellable push returned.
#[derive(Default)]
struct Pair {
    wheel: EventQueue,
    model: Model,
    handles: Vec<Option<TimerHandle>>,
    /// Timestamp of the last popped batch (or the deadline a run settled
    /// at): pushes are always `now + delay`, as in a `World`.
    now: u64,
}

impl Pair {
    /// Push at `now + delay`, with `key` as the tie-break or, unkeyed, the
    /// queue's insertion counter (which the push count mirrors).
    fn push(&mut self, delay: u64, key: Option<u64>, cancellable: bool) {
        let at = self.now.saturating_add(delay);
        let token = self.handles.len() as u64;
        let kind = EventKind::Timer(Timer {
            node: NodeId(token as usize % 8),
            token: TimerToken(token),
        });
        let (t, w) = (SimTime(at), &mut self.wheel);
        let handle = match (key, cancellable) {
            (None, false) => {
                w.push(t, kind);
                None
            }
            (None, true) => Some(w.push_cancellable(t, kind)),
            (Some(k), false) => {
                w.push_keyed(t, k, kind);
                None
            }
            (Some(k), true) => Some(w.push_cancellable_keyed(t, k, kind)),
        };
        self.model.push(at, key.unwrap_or(token), token, handle);
        self.handles.push(handle);
        self.check();
    }

    /// Cancel the timer pushed as `token`, if it was cancellable; both sides
    /// must agree whether it was still queued.
    fn cancel(&mut self, token: u64) -> Option<bool> {
        let h = self.handles[token as usize]?;
        let hit = self.wheel.cancel(h);
        assert_eq!(hit, self.model.cancel(h), "cancel of token {token}");
        self.check();
        Some(hit)
    }

    /// Every push is dispatched, cancelled or still queued — on the wheel
    /// and, counter for counter, in the model.
    fn check(&self) {
        let s = self.wheel.stats();
        assert_eq!(
            s.pushed,
            s.dispatched + s.cancelled + self.wheel.len() as u64,
            "pushed must equal dispatched + cancelled + pending"
        );
        assert_eq!(s, self.model.stats);
        assert_eq!(self.wheel.len(), self.model.queued.len());
    }

    /// Pop one event from each side and check they match; `false` once
    /// both are empty.
    fn pop_matches(&mut self) -> bool {
        let got = self.wheel.pop().map(|e| (e.at.0, e.seq, token_of(&e.kind)));
        assert_eq!(got, self.model.pop(), "pop diverged");
        self.check();
        match got {
            Some((at, ..)) => {
                assert!(at >= self.now, "time ran backwards");
                self.now = at;
                true
            }
            None => false,
        }
    }

    /// One deadline-bounded batch from each side, compared; the batch's
    /// tokens, or `None` when nothing is due.
    fn batch_matches(&mut self, deadline: u64) -> Option<Vec<u64>> {
        let mut buf = Vec::new();
        let t = self.wheel.pop_batch_until(SimTime(deadline), &mut buf);
        let got: Vec<_> = buf
            .iter()
            .map(|e| (e.at.0, e.seq, token_of(&e.kind)))
            .collect();
        let want = self.model.pop_batch_until(deadline);
        assert_eq!(
            t.map(|t| (t.0, got)),
            want.clone(),
            "batch due by {deadline} diverged"
        );
        self.check();
        let (t, batch) = want?;
        self.now = t;
        Some(batch.into_iter().map(|(.., token)| token).collect())
    }

    fn drain_and_check(&mut self) {
        while self.pop_matches() {}
        let s = self.wheel.stats();
        assert_eq!(
            s.dispatched + s.cancelled,
            s.pushed,
            "drained queue must account for every push"
        );
    }
}

#[test]
fn interleaved_push_pop_across_windows() {
    let mut pair = Pair::default();
    let mut lcg = 0x1234_5678_u64;
    for _ in 0..2_000u64 {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Mix of same-tick, near, cascade-crossing and far-future delays.
        let delay = match lcg % 7 {
            0 => 0,
            1 => lcg % 256,
            2 => 255 + lcg % 3,
            3 => lcg % 70_000,
            4 => lcg % (1 << 25),
            5 => (1 << 32) + lcg % 1_000,
            _ => lcg % 64,
        };
        pair.push(delay, None, false);
        if lcg.is_multiple_of(3) {
            assert!(pair.pop_matches());
        }
    }
    pair.drain_and_check();
    assert!(pair.wheel.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary interleavings of push / cancel / pop, delays drawn from
    /// the boundary-straddling table (with ±jitter so both sides of each
    /// boundary occur), popped dry at the end.
    #[test]
    fn wheel_matches_the_model(
        ops in proptest::collection::vec(
            (0u8..10, any::<u16>(), 0u64..3),
            1..250,
        )
    ) {
        let mut pair = Pair::default();
        for (sel, raw, jitter) in ops {
            match sel {
                // Pushes dominate so queues grow deep enough to cascade.
                0..=4 => {
                    let delay = DELAYS[raw as usize % DELAYS.len()].saturating_add(jitter);
                    pair.push(delay, None, raw & 1 == 0);
                }
                5..=6 if !pair.handles.is_empty() => {
                    pair.cancel(raw as u64 % pair.handles.len() as u64);
                }
                5..=6 => {}
                _ => {
                    for _ in 0..=jitter {
                        pair.pop_matches();
                    }
                }
            }
        }
        pair.drain_and_check();
    }

    /// Same-tick bursts: many events at identical timestamps must pop in
    /// exact insertion (seq) order.
    #[test]
    fn same_tick_ties_preserve_insertion_order(
        burst in proptest::collection::vec((0u64..4, any::<u16>()), 1..120)
    ) {
        let mut pair = Pair::default();
        for (slot, raw) in burst {
            // Four distinct timestamps, many collisions per timestamp.
            pair.push(slot * 256, None, raw & 1 == 0);
        }
        pair.drain_and_check();
    }

    /// Deadline-bounded batch drains (`pop_batch_until`) must agree with
    /// the model on batch times, batch contents, and on what is left
    /// behind — this exercises the wheel's bounded cursor normalization,
    /// which must never advance past the deadline.
    #[test]
    fn batch_drain_matches_the_model(
        pushes in proptest::collection::vec((any::<u16>(), 0u64..3), 1..150),
        deadlines in proptest::collection::vec(any::<u16>(), 1..40,)
    ) {
        let mut pair = Pair::default();
        for (raw, jitter) in pushes {
            let delay = DELAYS[raw as usize % DELAYS.len()].saturating_add(jitter);
            pair.push(delay, None, raw & 1 == 0);
        }
        let mut horizon = 0u64;
        for d in deadlines {
            horizon = horizon.saturating_add(d as u64 * 4096);
            while pair.batch_matches(horizon).is_some() {}
        }
        pair.drain_and_check();
    }

    /// How a `World` drives its queue. Handlers push keyed from three to
    /// six lanes, each with its own counter, so the key order within an
    /// instant is not the order the pushes were made in; they push at the
    /// batch instant and later; they cancel timers, some of them in the
    /// batch being fired, where a cancel comes too late and must say so.
    /// Runs advance by `run_for`-like deadlines and settle at each, and one
    /// push may follow every settle.
    #[test]
    fn world_usage_matches_the_model(
        lanes in 3usize..7,
        script in proptest::collection::vec((0u8..10, any::<u16>(), 0usize..64), 1..400),
        steps in proptest::collection::vec(0u64..70_000, 1..40),
    ) {
        // Lane 0 is the external lane; the rest alternate node and segment.
        let lane_ids: Vec<u64> = (0..lanes)
            .map(|i| match i {
                0 => LANE_EXTERNAL,
                _ if i % 2 == 1 => node_lane(NodeId(i)),
                _ => segment_lane(i),
            })
            .collect();
        let mut counters = vec![0u64; lanes];
        let mut script = script.into_iter();
        let mut pair = Pair::default();
        // One handler's worth of work: `batch` is what is being fired.
        let mut act = |pair: &mut Pair, batch: &[u64]| {
            let Some((sel, raw, pick)) = script.next() else { return };
            let delay = match raw % 4 {
                0 => 0,
                _ => DELAYS[raw as usize % DELAYS.len()],
            };
            let mut key = |lane: usize| {
                counters[lane] += 1;
                lane_key(lane_ids[lane], counters[lane] - 1)
            };
            match sel {
                0..=3 => pair.push(delay, Some(key(pick % lanes)), false),
                4..=6 => pair.push(delay, Some(key(pick % lanes)), true),
                7 if !pair.handles.is_empty() => {
                    pair.cancel(pick as u64 % pair.handles.len() as u64);
                }
                8 => {
                    let batched = batch.iter().filter(|&&t| pair.handles[t as usize].is_some());
                    if let Some(&token) = batched.cycle().nth(pick) {
                        assert_eq!(pair.cancel(token), Some(false), "a batched timer fires");
                    }
                }
                _ => {
                    // A burst at this instant: the higher lane pushes first.
                    pair.push(0, Some(key(lanes - 1)), false);
                    pair.push(0, Some(key(pick % (lanes - 1))), true);
                }
            }
        };
        for d in steps {
            act(&mut pair, &[]);
            let deadline = pair.now + d;
            while let Some(batch) = pair.batch_matches(deadline) {
                for _ in &batch {
                    act(&mut pair, &batch);
                }
            }
            pair.now = deadline;
        }
        while let Some(batch) = pair.batch_matches(u64::MAX) {
            for _ in &batch {
                act(&mut pair, &batch);
            }
        }
        pair.drain_and_check();
    }
}

//! The shim's unsafe code held to a model: random sequences of buffer
//! operations run side by side on `Bytes` / `BytesMut` and on plain
//! `Vec<u8>`s, and a counting allocator checks that every block is freed
//! exactly once and that none outlives its last handle. Run it in
//! `--release` too after touching the shim: optimisation changes what a
//! mistake in unsafe code does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::mem::{self, size_of};

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

/// Addresses of this thread's live allocations, while tracking is on.
/// A fixed table: the allocator may not allocate to record allocations.
const TRACKED: usize = 4096;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: RefCell<[usize; TRACKED]> = const { RefCell::new([0; TRACKED]) };
    /// Blocks freed while tracking, handed back to the system only when
    /// tracking ends: a view that outlives its block then reads and writes
    /// memory still owned, and its second free is counted, not a crash.
    static QUARANTINE: RefCell<[(usize, Layout); TRACKED]> =
        const { RefCell::new([(0, Layout::new::<u8>()); TRACKED]) };
    static BAD_FREES: Cell<usize> = const { Cell::new(0) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

struct Tracker;

unsafe impl GlobalAlloc for Tracker {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && tracking() {
            LIVE.with_borrow_mut(|live| {
                let slot = live.iter_mut().find(|a| **a == 0);
                *slot.expect("more live allocations than the table tracks") = p as usize;
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            let known = LIVE.with_borrow_mut(|live| {
                let slot = live.iter_mut().find(|a| **a == ptr as usize);
                slot.map(|slot| *slot = 0).is_some()
            });
            if !known {
                // Freed twice, or never allocated while tracked: count it
                // and leak it, so the test fails on its assertion rather
                // than on the allocator's corrupted state.
                BAD_FREES.set(BAD_FREES.get() + 1);
                return;
            }
            QUARANTINE.with_borrow_mut(|held| {
                let slot = held.iter_mut().find(|(a, _)| *a == 0);
                *slot.expect("more freed blocks than the quarantine holds") =
                    (ptr as usize, layout);
            });
            return;
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracker = Tracker;

fn live_blocks() -> usize {
    LIVE.with_borrow(|live| live.iter().filter(|a| **a != 0).count())
}

/// Run `body` with this thread's allocations tracked; returns the blocks it
/// left live and the frees of untracked or already-freed blocks.
fn tracked(body: impl FnOnce() -> Result<(), String>) -> (Result<(), String>, usize, usize) {
    LIVE.with_borrow_mut(|live| live.fill(0));
    BAD_FREES.set(0);
    TRACKING.set(true);
    let outcome = body();
    TRACKING.set(false);
    let held =
        QUARANTINE.with_borrow_mut(|held| mem::replace(held, [(0, Layout::new::<u8>()); TRACKED]));
    for (ptr, layout) in held.into_iter().filter(|(a, _)| *a != 0) {
        // SAFETY: freed exactly once while tracked, and held since.
        unsafe { System.dealloc(ptr as *mut u8, layout) };
    }
    (outcome, live_blocks(), BAD_FREES.get())
}

/// One step of a sequence: an operation code and a random word its
/// operands are drawn from.
fn step() -> impl Strategy<Value = (u8, u64)> {
    (0u8..12, any::<u64>())
}

fn bytes_of(word: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (word >> (i % 8 * 8)) as u8 ^ i as u8)
        .collect()
}

/// Apply `ops` to real buffers and to `Vec` models, checking each handle
/// against its model after every step.
fn run(ops: &[(u8, u64)]) -> Result<(), String> {
    let mut frozen: Vec<(Bytes, Vec<u8>)> = Vec::new();
    let mut open: Vec<(BytesMut, Vec<u8>)> = Vec::new();
    for &(op, word) in ops {
        // Which frozen and which open handle the step works on, if any.
        let pick = |n: usize| (word >> 40) as usize % n.max(1);
        let (f, o) = (pick(frozen.len()), pick(open.len()));
        let len = (word >> 16) as usize % 100;
        match op {
            0 => {
                let cap = (word >> 8) as usize % 40;
                let buf = BytesMut::with_capacity(cap);
                prop_assert!(buf.capacity() >= cap);
                open.push((buf, Vec::new()));
            }
            // Often past the capacity: the block has to grow and move.
            1 | 2 if !open.is_empty() => {
                let (buf, model) = &mut open[o];
                let data = bytes_of(word, len);
                if op == 1 {
                    buf.extend_from_slice(&data);
                } else {
                    for &b in &data {
                        buf.put_u8(b);
                    }
                }
                model.extend_from_slice(&data);
            }
            3 if !open.is_empty() => {
                let (mut buf, mut model) = open.swap_remove(o);
                if !model.is_empty() {
                    let at = (word as usize) % model.len();
                    buf[at] ^= 0x5a;
                    model[at] ^= 0x5a;
                }
                // Empty buffers too: freezing one must free its block.
                frozen.push((buf.freeze(), model));
            }
            4 => {
                let data = bytes_of(word, len);
                let b = match word % 3 {
                    0 => Bytes::copy_from_slice(&data),
                    1 => Bytes::from(data.clone()),
                    _ => data.iter().copied().collect(),
                };
                frozen.push((b, data));
            }
            5 | 6 if !frozen.is_empty() => {
                let (b, model) = &frozen[f];
                let twin = if op == 5 {
                    (b.clone(), model.clone())
                } else {
                    let (x, y) = (word as usize % (model.len() + 1), len % (model.len() + 1));
                    let (lo, hi) = (x.min(y), x.max(y));
                    (b.slice(lo..hi), model[lo..hi].to_vec())
                };
                frozen.push(twin);
            }
            7 if !frozen.is_empty() => {
                let (b, model) = &mut frozen[f];
                let n = word as usize % (model.len() + 1);
                b.advance(n);
                model.drain(..n);
            }
            8 if !frozen.is_empty() => {
                let (b, model) = &mut frozen[f];
                let n = word as usize % (model.len() + 1);
                let head = b.split_to(n);
                let head_model: Vec<u8> = model.drain(..n).collect();
                frozen.push((head, head_model));
            }
            9 | 10 if !frozen.is_empty() => drop(frozen.swap_remove(f)),
            11 if !open.is_empty() => drop(open.swap_remove(o)),
            _ => {}
        }
        for (b, model) in &frozen {
            prop_assert_eq!(b.as_slice(), model.as_slice());
            prop_assert_eq!(b.len(), model.len());
        }
        for (buf, model) in &open {
            prop_assert_eq!(&buf[..], model.as_slice());
            prop_assert!(buf.capacity() >= buf.len());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn buffers_match_the_model_and_free_every_block_once(
        ops in proptest::collection::vec(step(), 0..160),
    ) {
        let (outcome, live, bad_frees) = tracked(|| run(&ops));
        outcome?;
        prop_assert_eq!(bad_frees, 0, "a block freed twice or never allocated");
        prop_assert_eq!(live, 0, "blocks outlived their last handle");
    }
}

#[test]
fn a_bytes_is_two_words() {
    assert_eq!(size_of::<Bytes>(), 16);
}

#[test]
fn copying_a_slice_is_one_allocation_and_clones_are_none() {
    let (outcome, live, bad_frees) = tracked(|| {
        let b = Bytes::copy_from_slice(b"one block");
        prop_assert_eq!(live_blocks(), 1);
        let views = [b.clone(), b.slice(4..), b.slice(..3)];
        prop_assert_eq!(live_blocks(), 1);
        drop(b);
        prop_assert_eq!(live_blocks(), 1, "the views keep the block");
        drop(views);
        prop_assert_eq!(live_blocks(), 0);
        Ok(())
    });
    assert_eq!(outcome, Ok(()));
    assert_eq!((live, bad_frees), (0, 0));
}

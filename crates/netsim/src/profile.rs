//! Flight recorder: hierarchical wall-clock profiling scopes, allocation
//! telemetry, global counters, and a sim-time-driven gauge sampler.
//!
//! The recorder is **zero-cost when disabled**: every entry point starts
//! with a single relaxed atomic load and returns immediately, so
//! instrumented hot paths (forwarding, route lookup, timer dispatch) pay
//! one predictable branch. When enabled via [`set_enabled`] (experiment
//! binaries honor `NETSIM_PROFILE=1` / `--profile`), the thread that opens
//! a scope records it into its own call tree — no thread is spawned
//! anywhere in the workspace, so that is the one tree there is:
//!
//! - [`scope`] returns an RAII guard; enter/exit deltas from the
//!   monotonic clock aggregate into per-(parent, name) nodes holding
//!   inclusive nanoseconds, call counts, and allocation deltas.
//! - A counting [`GlobalAlloc`] wrapper ([`CountingAllocator`]) tracks
//!   per-thread allocation count and bytes, so each scope also learns how
//!   much it allocated (exclusive figures are derived at report time as
//!   `inclusive − Σ children`).
//! - Named global [`Counter`]s (route-cache hits/misses, …) accumulate in
//!   process-wide atomics.
//! - [`TimeSeries`] snapshots gauges on a sim-time stride that doubles
//!   whenever the bounded buffer fills, so arbitrarily long runs keep a
//!   capped, evenly spread sample set.
//!
//! [`capture`] snapshots the calling thread's tree as a [`ProfileReport`]
//! and leaves the data in place, so repeated captures agree. Reports
//! render as text (`render_tree` / `render_hot` / `render_alloc`), write
//! themselves into the run-report JSON via [`ProfileReport::capped`],
//! round-trip back through
//! [`ProfileReport::from_value`] for the `profile` inspector bin, and
//! export as chrome-trace complete events via
//! [`ProfileReport::chrome_trace`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{JsonWriter, Serialize, Value};

// ---------------------------------------------------------------------------
// Enable flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Nanoseconds-since-process-anchor when profiling was last enabled; lets
/// reports state the wall time the recorder was live.
static ENABLED_AT_NS: AtomicU64 = AtomicU64::new(0);

/// Whether the flight recorder is currently on. One relaxed load — this
/// is the only cost instrumented code pays when profiling is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the flight recorder on or off process-wide. Scopes opened while
/// enabled keep recording their exit even if disabled mid-flight.
pub fn set_enabled(on: bool) {
    if on {
        ENABLED_AT_NS.store(ns_since_anchor(), Ordering::Relaxed);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide monotonic anchor; all wall timestamps are deltas from it.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn ns_since_anchor() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Allocation telemetry
// ---------------------------------------------------------------------------

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide live heap bytes: every allocation adds its size, every
/// free subtracts it. Unlike the monotonic thread-local tallies this is
/// dealloc-aware, so diffing two readings measures *steady-state* memory
/// (what stays resident), not allocator churn — the number the scale
/// experiments publish as per-host bytes.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

#[inline]
fn count_live(delta: i64) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

/// Current live heap bytes (allocated minus freed since process start).
/// Racy only to the extent other threads are allocating concurrently;
/// single-threaded measurement regions read it exactly.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[inline]
fn count_alloc(bytes: usize) {
    // `try_with` + const-initialized `Cell`s (no destructor, no lazy
    // registration) make this safe to call from inside the allocator at
    // any point in a thread's lifetime, including TLS teardown.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = TL_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

/// Counting wrapper around the system allocator: maintains per-thread
/// allocation-count and byte tallies (always on — two thread-local cell
/// bumps per allocation) that profiling scopes diff to attribute
/// allocations. Installed as the workspace `#[global_allocator]`.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System` for memory management; the counting
// side effect touches only const-initialized thread-local cells.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        let p = System.alloc(layout);
        if !p.is_null() {
            count_live(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_live(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_live(new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

/// This thread's running `(allocation count, allocated bytes)` totals
/// since thread start. Monotonic (frees are not subtracted); diff two
/// readings to measure a region, e.g. the O(1)-allocation regression
/// tests do exactly that.
pub fn thread_allocations() -> (u64, u64) {
    (
        TL_ALLOCS.try_with(Cell::get).unwrap_or(0),
        TL_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

// ---------------------------------------------------------------------------
// Global counters
// ---------------------------------------------------------------------------

/// Process-wide event counters sampled by the gauge sampler and embedded
/// in profile reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Route lookups answered from the per-table lookup cache.
    RouteCacheHit = 0,
    /// Route lookups that fell through to the longest-prefix-match walk.
    RouteCacheMiss = 1,
    /// Policy method-cache lookups answered from a live entry.
    PolicyCacheHit = 2,
    /// Policy method-cache lookups that decided afresh (first contact).
    PolicyCacheMiss = 3,
    /// Policy method-cache entries displaced by LRU eviction at capacity.
    PolicyCacheEviction = 4,
    /// Policy method-cache entries discarded by TTL expiry.
    PolicyCacheExpiry = 5,
}

const NCOUNTERS: usize = 6;
static COUNTERS: [AtomicU64; NCOUNTERS] = [const { AtomicU64::new(0) }; NCOUNTERS];

const COUNTER_NAMES: [&str; NCOUNTERS] = [
    "route_cache_hit",
    "route_cache_miss",
    "policy_cache_hit",
    "policy_cache_miss",
    "policy_cache_eviction",
    "policy_cache_expiry",
];

/// Adds `n` to a global counter; no-op while profiling is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a global counter.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Per-thread call-tree recorder
// ---------------------------------------------------------------------------

const NONE: u32 = u32::MAX;

/// One node of a thread's call tree. Children form an intrusive singly
/// linked list so `enter` allocates nothing on the hot path once a
/// (parent, name) pair has been seen.
struct TreeNode {
    name: &'static str,
    first_child: u32,
    next_sibling: u32,
    calls: u64,
    incl_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

struct Frame {
    node: u32,
    start: Instant,
    allocs0: u64,
    bytes0: u64,
}

struct Recorder {
    nodes: Vec<TreeNode>,
    stack: Vec<Frame>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            nodes: vec![TreeNode {
                name: "",
                first_child: NONE,
                next_sibling: NONE,
                calls: 0,
                incl_ns: 0,
                allocs: 0,
                alloc_bytes: 0,
            }],
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(0, |f| f.node);
        let mut child = self.nodes[parent as usize].first_child;
        let node = loop {
            if child == NONE {
                let ix = self.nodes.len() as u32;
                let head = self.nodes[parent as usize].first_child;
                self.nodes.push(TreeNode {
                    name,
                    first_child: NONE,
                    next_sibling: head,
                    calls: 0,
                    incl_ns: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                });
                self.nodes[parent as usize].first_child = ix;
                break ix;
            }
            let n = &self.nodes[child as usize];
            // Names are literals, so pointer equality is the common case;
            // fall back to content comparison across codegen units.
            if std::ptr::eq(n.name.as_ptr(), name.as_ptr()) || n.name == name {
                break child;
            }
            child = n.next_sibling;
        };
        let (allocs0, bytes0) = thread_allocations();
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            allocs0,
            bytes0,
        });
    }

    fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let delta = frame.start.elapsed().as_nanos() as u64;
        let (allocs, bytes) = thread_allocations();
        let node = &mut self.nodes[frame.node as usize];
        node.calls += 1;
        node.incl_ns += delta;
        node.allocs += allocs.wrapping_sub(frame.allocs0);
        node.alloc_bytes += bytes.wrapping_sub(frame.bytes0);
    }

    /// Zeroes every tally while keeping the node structure (live frames
    /// reference nodes by index, so the tree must survive a reset).
    fn zero(&mut self) {
        for n in &mut self.nodes {
            n.calls = 0;
            n.incl_ns = 0;
            n.allocs = 0;
            n.alloc_bytes = 0;
        }
    }

    /// The children of `parent` that closed at least once or hold a
    /// descendant that did, hottest first. A node zeroed by [`reset`] or
    /// still open with nothing closed under it is structure, not data.
    fn stats(&self, parent: u32) -> Vec<ScopeStat> {
        let mut stats = Vec::new();
        let mut ix = self.nodes[parent as usize].first_child;
        while ix != NONE {
            let n = &self.nodes[ix as usize];
            let children = self.stats(ix);
            if n.calls > 0 || !children.is_empty() {
                let child_incl: u64 = children.iter().map(|c| c.incl_ns).sum();
                stats.push(ScopeStat {
                    name: n.name.to_string(),
                    calls: n.calls,
                    incl_ns: n.incl_ns,
                    excl_ns: n.incl_ns.saturating_sub(child_incl),
                    allocs: n.allocs,
                    alloc_bytes: n.alloc_bytes,
                    children,
                });
            }
            ix = n.next_sibling;
        }
        stats.sort_by_key(|s| std::cmp::Reverse(s.incl_ns));
        stats
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// RAII guard returned by [`scope`]; records the scope's inclusive time
/// and allocation delta when dropped.
#[must_use = "hold the guard in a binding for the scope's duration"]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            let _ = RECORDER.try_with(|r| r.borrow_mut().exit());
        }
    }
}

/// Opens a named profiling scope on this thread. When profiling is
/// disabled this is one atomic load and an inert guard; when enabled the
/// guard's lifetime becomes one call-tree sample under the innermost
/// enclosing scope.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false };
    }
    let active = RECORDER.try_with(|r| r.borrow_mut().enter(name)).is_ok();
    ScopeGuard { active }
}

/// Clears all recorded data: this thread's recorder and every global
/// counter. Primarily for tests and benches that must not leak samples
/// into a later capture.
pub fn reset() {
    let _ = RECORDER.try_with(|r| r.borrow_mut().zero());
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    ENABLED_AT_NS.store(ns_since_anchor(), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Aggregated statistics for one profiling scope (one call-tree node).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScopeStat {
    /// Scope name as passed to [`scope`].
    pub name: String,
    /// Times the scope was entered and exited.
    pub calls: u64,
    /// Wall nanoseconds inside the scope, children included.
    pub incl_ns: u64,
    /// Wall nanoseconds inside the scope minus time in child scopes.
    pub excl_ns: u64,
    /// Heap allocations performed while the scope was innermost-or-above.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Child scopes, sorted by inclusive time, largest first.
    pub children: Vec<ScopeStat>,
}

/// A snapshot of everything the flight recorder gathered: the call-tree
/// forest, global counters, and bookkeeping totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Wall nanoseconds profiling has been enabled when captured.
    pub wall_ns: u64,
    /// Global counter values, in declaration order.
    pub counters: Vec<(String, u64)>,
    /// Top-level scopes (scopes entered with no enclosing scope).
    pub roots: Vec<ScopeStat>,
}

/// Snapshots the calling thread's call tree as a [`ProfileReport`].
/// Non-destructive: recorded data stays in place. A scope still open at
/// the time has not recorded its own exit yet and reports only what has
/// closed under it.
pub fn capture() -> ProfileReport {
    let roots = RECORDER.try_with(|r| r.borrow().stats(0));
    ProfileReport {
        wall_ns: ns_since_anchor().saturating_sub(ENABLED_AT_NS.load(Ordering::Relaxed)),
        counters: COUNTER_NAMES
            .iter()
            .zip(&COUNTERS)
            .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
            .collect(),
        roots: roots.unwrap_or_default(),
    }
}

fn count_nodes(stats: &[ScopeStat]) -> usize {
    stats.iter().map(|s| 1 + count_nodes(&s.children)).sum()
}

/// Writes `s` and as many of its descendants as `budget` still allows.
fn write_stat(s: &ScopeStat, budget: &mut usize, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("name", &s.name);
        w.field("calls", &s.calls);
        w.field("incl_ns", &s.incl_ns);
        w.field("excl_ns", &s.excl_ns);
        w.field("allocs", &s.allocs);
        w.field("alloc_bytes", &s.alloc_bytes);
        if *budget > 0 && !s.children.is_empty() {
            w.key("children");
            w.array(|w| write_capped(&s.children, budget, w));
        }
    });
}

/// Children arrive sorted by inclusive time, so a greedy budget walk keeps
/// the hottest subtrees when capped.
fn write_capped(stats: &[ScopeStat], budget: &mut usize, w: &mut JsonWriter) {
    for s in stats {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        write_stat(s, budget, w);
    }
}

impl ProfileReport {
    /// Total inclusive nanoseconds across root scopes: the wall time
    /// attributed to named scopes.
    pub fn total_incl_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.incl_ns).sum()
    }

    /// The report as a run-report `profile` section, emitting at most
    /// `cap` scopes (hottest-first, ancestors always kept; the
    /// `scopes_total` field records how many existed before capping).
    pub fn capped(&self, cap: usize) -> impl Serialize + '_ {
        serde::from_fn(move |w| {
            w.object(|w| {
                w.field("wall_ns", &self.wall_ns);
                w.field("scopes_total", &count_nodes(&self.roots));
                w.key("counters");
                w.object(|w| self.counters.iter().for_each(|(n, v)| w.field(n, v)));
                w.key("scopes");
                w.array(|w| write_capped(&self.roots, &mut cap.max(1), w));
            });
        })
    }

    /// Parses a report back out of a run-report `profile` section.
    /// Returns `None` when the value is not a profile object.
    pub fn from_value(v: &Value) -> Option<ProfileReport> {
        fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
            match v {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn as_u64(v: &Value) -> Option<u64> {
            match v {
                Value::U64(n) => Some(*n),
                Value::I64(n) => u64::try_from(*n).ok(),
                Value::F64(f) => Some(*f as u64),
                _ => None,
            }
        }
        fn parse_stat(v: &Value) -> Option<ScopeStat> {
            let name = match get(v, "name")? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            let children = match get(v, "children") {
                Some(Value::Array(items)) => items.iter().filter_map(parse_stat).collect(),
                _ => Vec::new(),
            };
            Some(ScopeStat {
                name,
                calls: get(v, "calls").and_then(as_u64)?,
                incl_ns: get(v, "incl_ns").and_then(as_u64)?,
                excl_ns: get(v, "excl_ns").and_then(as_u64)?,
                allocs: get(v, "allocs").and_then(as_u64).unwrap_or(0),
                alloc_bytes: get(v, "alloc_bytes").and_then(as_u64).unwrap_or(0),
                children,
            })
        }
        let scopes = get(v, "scopes")?;
        let roots = match scopes {
            Value::Array(items) => items.iter().filter_map(parse_stat).collect(),
            _ => return None,
        };
        let counters = match get(v, "counters") {
            Some(Value::Object(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), as_u64(v)?)))
                .collect(),
            _ => Vec::new(),
        };
        Some(ProfileReport {
            wall_ns: get(v, "wall_ns").and_then(as_u64).unwrap_or(0),
            counters,
            roots,
        })
    }

    /// Renders the call-tree forest, one indented line per scope.
    pub fn render_tree(&self) -> String {
        fn walk(out: &mut String, s: &ScopeStat, depth: usize) {
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{:<width$} {:>10} calls  incl {:>10}  excl {:>10}  {:>8} allocs  {:>10}\n",
                s.name,
                s.calls,
                human_ns(s.incl_ns),
                human_ns(s.excl_ns),
                s.allocs,
                human_bytes(s.alloc_bytes),
                width = 36usize.saturating_sub(depth * 2),
            ));
            for c in &s.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = format!(
            "profile: wall {} · {} scopes\n",
            human_ns(self.wall_ns),
            count_nodes(&self.roots),
        );
        for r in &self.roots {
            walk(&mut out, r, 0);
        }
        out
    }

    /// Flat aggregation across the tree keyed by scope name. Returns
    /// `(name, calls, excl_ns, allocs, alloc_bytes)` sorted by the chosen
    /// key, largest first.
    fn flat(&self, by_alloc: bool) -> Vec<(String, u64, u64, u64, u64)> {
        fn walk(acc: &mut std::collections::HashMap<String, (u64, u64, u64, u64)>, s: &ScopeStat) {
            let e = acc.entry(s.name.clone()).or_default();
            e.0 += s.calls;
            e.1 += s.excl_ns;
            e.2 += s.allocs;
            e.3 += s.alloc_bytes;
            for c in &s.children {
                walk(acc, c);
            }
        }
        let mut acc = std::collections::HashMap::new();
        for r in &self.roots {
            walk(&mut acc, r);
        }
        let mut flat: Vec<_> = acc
            .into_iter()
            .map(|(name, (calls, excl, allocs, bytes))| (name, calls, excl, allocs, bytes))
            .collect();
        if by_alloc {
            flat.sort_by(|a, b| b.4.cmp(&a.4).then(a.0.cmp(&b.0)));
        } else {
            flat.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        }
        flat
    }

    /// Renders the hottest scopes by exclusive time, with the share of
    /// recorder wall time each accounts for.
    pub fn render_hot(&self, top: usize) -> String {
        let attributed = self.total_incl_ns();
        let pct = if self.wall_ns > 0 {
            attributed as f64 * 100.0 / self.wall_ns as f64
        } else {
            0.0
        };
        let mut out = format!(
            "hot scopes by exclusive time · wall {} · attributed {} ({pct:.1}% of wall)\n",
            human_ns(self.wall_ns),
            human_ns(attributed),
        );
        for (name, calls, excl, _, _) in self.flat(false).into_iter().take(top) {
            let share = if self.wall_ns > 0 {
                excl as f64 * 100.0 / self.wall_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>10}  {share:>5.1}%  {calls:>10} calls  {name}\n",
                human_ns(excl),
            ));
        }
        out
    }

    /// Renders the heaviest allocators by bytes, aggregated by scope name.
    pub fn render_alloc(&self, top: usize) -> String {
        let mut out = String::from("scopes by allocated bytes\n");
        for (name, calls, _, allocs, bytes) in self.flat(true).into_iter().take(top) {
            out.push_str(&format!(
                "{:>10}  {allocs:>10} allocs  {calls:>10} calls  {name}\n",
                human_bytes(bytes),
            ));
        }
        out
    }

    /// Lowers the forest into chrome-trace "complete" (`ph: "X"`) events:
    /// a synthetic flame layout where each scope spans its inclusive time
    /// and children tile left-to-right inside the parent. Load the result
    /// in `chrome://tracing` / Perfetto.
    pub fn chrome_trace(&self) -> impl Serialize + '_ {
        fn emit(w: &mut JsonWriter, s: &ScopeStat, ts_us: f64) {
            w.object(|w| {
                w.field("name", &s.name);
                w.field("ph", "X");
                w.field("ts", &ts_us);
                w.field("dur", &(s.incl_ns as f64 / 1_000.0));
                w.field("pid", &1u64);
                w.field("tid", &1u64);
                w.key("args");
                w.object(|w| {
                    w.field("calls", &s.calls);
                    w.field("allocs", &s.allocs);
                    w.field("alloc_bytes", &s.alloc_bytes);
                });
            });
            let mut child_ts = ts_us;
            for c in &s.children {
                emit(w, c, child_ts);
                child_ts += c.incl_ns as f64 / 1_000.0;
            }
        }
        serde::from_fn(move |w| {
            w.object(|w| {
                w.key("traceEvents");
                w.array(|w| {
                    w.object(|w| {
                        w.field("name", "process_name");
                        w.field("ph", "M");
                        w.field("pid", &1u64);
                        w.key("args");
                        w.object(|w| w.field("name", "netsim profile (merged scopes)"));
                    });
                    let mut ts = 0.0;
                    for r in &self.roots {
                        emit(w, r, ts);
                        ts += r.incl_ns as f64 / 1_000.0;
                    }
                });
                w.field("displayTimeUnit", "ms");
            });
        })
    }
}

fn human_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn human_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.2} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

// ---------------------------------------------------------------------------
// Time-series gauge sampler
// ---------------------------------------------------------------------------

/// One gauge snapshot taken by the [`TimeSeries`] sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation clock at the snapshot, microseconds.
    pub sim_us: u64,
    /// Wall nanoseconds since sampling was enabled.
    pub wall_ns: u64,
    /// Cumulative events dispatched by the scheduler.
    pub dispatched: u64,
    /// Live (pushed, not yet dispatched or cancelled) timers.
    pub live_timers: u64,
    /// Occupied timing-wheel slots summed across levels (0 on the
    /// reference-heap backend).
    pub wheel_occupancy: u64,
    /// Entries parked in the overflow heap (whole queue for the
    /// reference-heap backend).
    pub overflow_len: u64,
    /// Cumulative global route-cache hits (all worlds in the process).
    pub route_cache_hits: u64,
    /// Cumulative global route-cache misses.
    pub route_cache_misses: u64,
    /// Crude estimate of the world's heap footprint, bytes.
    pub mem_est_bytes: u64,
    /// Dispatch rate against the wall clock since the previous sample.
    pub events_per_wall_sec: f64,
    /// Dispatch rate against the simulation clock since the previous
    /// sample.
    pub events_per_sim_sec: f64,
}

serde::impl_serialize!(Sample {
    sim_us,
    wall_ns,
    dispatched,
    live_timers,
    wheel_occupancy,
    overflow_len,
    route_cache_hits,
    route_cache_misses,
    mem_est_bytes,
    events_per_wall_sec,
    events_per_sim_sec,
});

/// Raw gauges a caller hands to [`TimeSeries::push`]; the sampler
/// derives rates and attaches counter values itself.
#[derive(Debug, Clone, Copy)]
pub struct RawGauges {
    /// Simulation clock, microseconds.
    pub sim_us: u64,
    /// Cumulative dispatched events.
    pub dispatched: u64,
    /// Live timers in the queue.
    pub live_timers: u64,
    /// Occupied wheel slots summed across levels.
    pub wheel_occupancy: u64,
    /// Overflow-heap length.
    pub overflow_len: u64,
    /// Estimated world heap footprint, bytes.
    pub mem_est_bytes: u64,
}

/// Bounded, sim-time-driven gauge sampler with stride doubling: when the
/// buffer reaches its cap, every other sample is dropped and the sampling
/// interval doubles, so any run length yields ≤ `cap` samples spread
/// evenly across the whole run.
#[derive(Debug)]
pub struct TimeSeries {
    interval_us: u64,
    next_at: u64,
    cap: usize,
    samples: Vec<Sample>,
    started: Instant,
    last_wall_ns: u64,
    last_sim_us: u64,
    last_dispatched: u64,
}

impl TimeSeries {
    /// Creates a sampler that snapshots every `interval_us` of sim time
    /// and keeps at most `cap` samples (minimum 8).
    pub fn new(interval_us: u64, cap: usize) -> TimeSeries {
        TimeSeries {
            interval_us: interval_us.max(1),
            next_at: 0,
            cap: cap.max(8),
            samples: Vec::new(),
            started: Instant::now(),
            last_wall_ns: 0,
            last_sim_us: 0,
            last_dispatched: 0,
        }
    }

    /// Whether the next sample is due at sim time `sim_us`.
    #[inline]
    pub fn due(&self, sim_us: u64) -> bool {
        sim_us >= self.next_at
    }

    /// Records a snapshot from raw gauges, deriving wall/sim dispatch
    /// rates from the deltas since the previous sample.
    pub fn push(&mut self, raw: RawGauges) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let d_events = raw.dispatched.saturating_sub(self.last_dispatched) as f64;
        let d_wall_s = wall_ns.saturating_sub(self.last_wall_ns) as f64 / 1e9;
        let d_sim_s = raw.sim_us.saturating_sub(self.last_sim_us) as f64 / 1e6;
        self.samples.push(Sample {
            sim_us: raw.sim_us,
            wall_ns,
            dispatched: raw.dispatched,
            live_timers: raw.live_timers,
            wheel_occupancy: raw.wheel_occupancy,
            overflow_len: raw.overflow_len,
            route_cache_hits: counter(Counter::RouteCacheHit),
            route_cache_misses: counter(Counter::RouteCacheMiss),
            mem_est_bytes: raw.mem_est_bytes,
            events_per_wall_sec: if d_wall_s > 0.0 {
                d_events / d_wall_s
            } else {
                0.0
            },
            events_per_sim_sec: if d_sim_s > 0.0 {
                d_events / d_sim_s
            } else {
                0.0
            },
        });
        self.last_wall_ns = wall_ns;
        self.last_sim_us = raw.sim_us;
        self.last_dispatched = raw.dispatched;
        if self.samples.len() >= self.cap {
            // Stride doubling: keep even-indexed samples, double the
            // interval. The retained set stays evenly spread in sim time.
            let mut keep = 0;
            for i in (0..self.samples.len()).step_by(2) {
                self.samples[keep] = self.samples[i];
                keep += 1;
            }
            self.samples.truncate(keep);
            self.interval_us = self.interval_us.saturating_mul(2);
        }
        self.next_at = raw.sim_us.saturating_add(self.interval_us);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Current sampling interval (doubles as the buffer fills).
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }
}

serde::impl_serialize!(TimeSeries {
    interval_us,
    samples
});

#[cfg(test)]
mod tests {
    use super::*;

    // Profiling state is process-global; unit tests here only exercise
    // pieces that do not flip the global enable flag (integration tests
    // own that, serialized behind a lock).

    /// `v` as a run-report reader sees it: rendered, then parsed.
    fn parsed(v: &impl Serialize) -> Value {
        serde_json::from_str(&serde_json::to_string(v).unwrap()).unwrap()
    }

    #[test]
    fn counting_allocator_sees_boxed_allocations() {
        let (a0, b0) = thread_allocations();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let (a1, b1) = thread_allocations();
        assert!(a1 > a0, "allocation count must advance");
        assert!(b1 - b0 >= 8 * 1024, "byte tally must cover the vec");
        drop(v);
    }

    #[test]
    fn disabled_scope_is_inert() {
        assert!(!enabled());
        let g = scope("test/inert");
        assert!(!g.active);
    }

    #[test]
    fn recorder_builds_a_tree_without_global_state() {
        let mut r = Recorder::new();
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.enter("inner");
        r.exit();
        r.exit();
        // root + outer + inner
        assert_eq!(r.nodes.len(), 3);
        let outer = &r.nodes[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls, 1);
        let inner = &r.nodes[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.calls, 2);
        assert!(outer.incl_ns >= inner.incl_ns);
    }

    #[test]
    fn time_series_stride_doubles_at_cap() {
        let mut ts = TimeSeries::new(10, 8);
        for i in 0..1000u64 {
            let sim_us = i * 10;
            if ts.due(sim_us) {
                ts.push(RawGauges {
                    sim_us,
                    dispatched: i,
                    live_timers: 1,
                    wheel_occupancy: 1,
                    overflow_len: 0,
                    mem_est_bytes: 64,
                });
            }
        }
        assert!(ts.samples().len() <= 8, "cap must hold");
        assert!(ts.interval_us() > 10, "interval must have doubled");
        let times: Vec<u64> = ts.samples().iter().map(|s| s.sim_us).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "samples stay time-ordered");
    }

    #[test]
    fn capped_report_round_trips() {
        let rep = ProfileReport {
            wall_ns: 5_000,
            counters: vec![("route_cache_hit".into(), 7)],
            roots: vec![ScopeStat {
                name: "world/run".into(),
                calls: 3,
                incl_ns: 4_000,
                excl_ns: 1_000,
                allocs: 12,
                alloc_bytes: 640,
                children: vec![ScopeStat {
                    name: "world/dispatch".into(),
                    calls: 9,
                    incl_ns: 3_000,
                    excl_ns: 3_000,
                    allocs: 4,
                    alloc_bytes: 128,
                    children: Vec::new(),
                }],
            }],
        };
        let back = ProfileReport::from_value(&parsed(&rep.capped(64))).expect("parses");
        assert_eq!(back, rep);
    }

    #[test]
    fn capped_report_keeps_hottest_scopes() {
        let mk = |name: &str, incl: u64| ScopeStat {
            name: name.into(),
            calls: 1,
            incl_ns: incl,
            excl_ns: incl,
            ..ScopeStat::default()
        };
        let rep = ProfileReport {
            roots: vec![mk("hot", 100), mk("warm", 50), mk("cold", 1)],
            ..ProfileReport::default()
        };
        let back = ProfileReport::from_value(&parsed(&rep.capped(2))).expect("parses");
        assert_eq!(back.roots.len(), 2);
        assert_eq!(back.roots[0].name, "hot");
        assert_eq!(back.roots[1].name, "warm");
    }

    #[test]
    fn chrome_trace_tiles_children_inside_parents() {
        let rep = ProfileReport {
            roots: vec![ScopeStat {
                name: "root".into(),
                calls: 1,
                incl_ns: 10_000,
                excl_ns: 4_000,
                children: vec![
                    ScopeStat {
                        name: "a".into(),
                        calls: 1,
                        incl_ns: 4_000,
                        excl_ns: 4_000,
                        ..ScopeStat::default()
                    },
                    ScopeStat {
                        name: "b".into(),
                        calls: 1,
                        incl_ns: 2_000,
                        excl_ns: 2_000,
                        ..ScopeStat::default()
                    },
                ],
                ..ScopeStat::default()
            }],
            ..ProfileReport::default()
        };
        let text = serde_json::to_string(&rep.chrome_trace()).unwrap();
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"root\""));
    }

    #[test]
    fn renderers_mention_scope_names() {
        let rep = ProfileReport {
            wall_ns: 1_000_000,
            roots: vec![ScopeStat {
                name: "route/lookup".into(),
                calls: 42,
                incl_ns: 900_000,
                excl_ns: 900_000,
                allocs: 3,
                alloc_bytes: 96,
                children: Vec::new(),
            }],
            ..ProfileReport::default()
        };
        assert!(rep.render_tree().contains("route/lookup"));
        assert!(rep.render_hot(10).contains("route/lookup"));
        assert!(rep.render_alloc(10).contains("route/lookup"));
    }
}

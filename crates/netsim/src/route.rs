//! Longest-prefix-match route table with a per-destination lookup cache.
//!
//! Replaces the linear scan over `Vec<RouteEntry>` on the forwarding hot
//! path. Storage is sized to the table: small tables (hosts with a
//! default route and an on-link prefix or two — the overwhelming
//! majority of nodes in a large world) are just the entry vector, looked
//! up by direct linear LPM with **zero** auxiliary allocations. Tables
//! past [`LINEAR_MAX`] entries build a single hash index keyed by
//! `(prefix length, network)` plus a populated-lengths bitmap — the
//! classic "binary search on prefix lengths" layout simplified to a
//! descending scan — and add a per-destination cache that
//! short-circuits repeat lookups, exactly the locality a packet flow
//! exhibits. The cache is invalidated whenever the table changes or an
//! interface moves (reattach), since either can change the right answer.
//!
//! The earlier layout (33 eagerly-created per-length hash maps) cost
//! ~1.6 KiB per node before a single route was installed; at 10⁵ nodes
//! that alone blew the per-host memory budget. The lazy index keeps
//! empty and small tables at one `Vec` while serving big backbone
//! tables at the same O(#prefix-lengths) bound as before.
//!
//! Semantics match [`lpm`](crate::device::router::lpm) exactly, including
//! the tie rule: when the same prefix is inserted twice, the
//! later entry wins (as `max_by_key` returns the last maximum).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::device::router::{lpm, RouteEntry};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Cidr};

/// Cache entries beyond this are assumed to indicate an unusual workload
/// (address sweeps); the cache resets rather than growing unboundedly.
const CACHE_CAP: usize = 1024;

/// Tables at or below this many entries stay index-free: a linear LPM
/// over a handful of entries beats hashing, and costs no heap beyond the
/// entries themselves.
const LINEAR_MAX: usize = 8;

/// The hash index built for large tables: one map over every installed
/// prefix plus the populated-lengths bitmap lookups scan.
#[derive(Debug, Default)]
struct LpmIndex {
    /// `(prefix_len << 32 | network)` → index in `entries` of the winning
    /// route for that exact prefix.
    buckets: HashMap<u64, usize>,
    /// Bit `p` set ⇔ some `/p` route is installed; lets lookups skip
    /// empty prefix lengths without probing the map.
    populated: u64,
}

impl LpmIndex {
    fn key(len: u8, network: u32) -> u64 {
        (u64::from(len) << 32) | u64::from(network)
    }

    fn insert(&mut self, entry: &RouteEntry, ix: usize) {
        let p = entry.prefix.prefix_len();
        self.buckets
            .insert(LpmIndex::key(p, entry.prefix.network().0), ix);
        self.populated |= 1u64 << p;
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.populated = 0;
    }
}

/// A route table offering O(#prefix-lengths) longest-prefix-match lookups
/// and an O(1) hit path for repeated destinations.
///
/// Drop-in replacement for the `Vec<RouteEntry>` + [`lpm`] pair used by
/// routers and hosts: [`RouteTable::entries`] still exposes the routes in
/// insertion order for display and tests.
#[derive(Debug, Default)]
pub struct RouteTable {
    /// All routes in insertion order (what `routes()` accessors expose).
    entries: Vec<RouteEntry>,
    /// The hash index; built lazily once the table outgrows [`LINEAR_MAX`].
    index: Option<Box<LpmIndex>>,
    /// dst → route memo. Interior mutability so `&self` lookups (hosts
    /// route from `&self` contexts) can still fill it; a `World` lives on
    /// one thread so `RefCell` suffices. Only engaged alongside the
    /// index — small tables answer faster than a hash probe anyway.
    cache: RefCell<HashMap<u32, Option<RouteEntry>>>,
}

impl RouteTable {
    /// An empty table. Allocation-free until routes are added.
    pub fn new() -> RouteTable {
        RouteTable {
            entries: Vec::new(),
            index: None,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Append a route. Later insertions of the same prefix shadow earlier
    /// ones, matching [`lpm`] over the equivalent vector.
    pub fn add(&mut self, entry: RouteEntry) {
        let ix = self.entries.len();
        if self.entries.capacity() == 0 {
            // Hosts hold exactly two routes (on-link + default); Vec's
            // default first allocation of four would waste half of every
            // host's table in a large world.
            self.entries.reserve_exact(2);
        }
        self.entries.push(entry);
        match &mut self.index {
            Some(index) => index.insert(&entry, ix),
            None if self.entries.len() > LINEAR_MAX => {
                let mut index = Box::<LpmIndex>::default();
                for (i, e) in self.entries.iter().enumerate() {
                    index.insert(e, i);
                }
                self.index = Some(index);
            }
            None => {}
        }
        self.invalidate_cache();
    }

    /// Remove every route. A table that built an index keeps it (emptied,
    /// capacity intact): the only callers that clear big tables — route
    /// recomputation above all — refill them to the same size immediately,
    /// and re-growing every router's map from scratch on each pass costs
    /// more than the retained buckets ever hold.
    pub fn clear(&mut self) {
        self.entries.clear();
        if let Some(index) = &mut self.index {
            index.clear();
        }
        self.invalidate_cache();
    }

    /// The routes, in insertion order.
    pub fn entries(&self) -> &[RouteEntry] {
        &self.entries
    }

    /// True when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Longest-prefix match for `dst`, consulting the cache first.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<RouteEntry> {
        let _prof = crate::profile::scope("route/lookup");
        let Some(index) = &self.index else {
            // Small table: direct linear LPM, no cache traffic.
            return lpm(&self.entries, dst);
        };
        if let Some(hit) = self.cache.borrow().get(&dst.0) {
            crate::profile::add(crate::profile::Counter::RouteCacheHit, 1);
            return *hit;
        }
        crate::profile::add(crate::profile::Counter::RouteCacheMiss, 1);
        let found = self.lookup_indexed(index, dst);
        let mut cache = self.cache.borrow_mut();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(dst.0, found);
        found
    }

    /// Longest-prefix match for `dst` against the index alone.
    fn lookup_indexed(&self, index: &LpmIndex, dst: Ipv4Addr) -> Option<RouteEntry> {
        let mut lens = index.populated;
        while lens != 0 {
            // Highest populated prefix length first: longest match wins.
            let p = 63 - lens.leading_zeros() as u8;
            let network = Ipv4Cidr::new(dst, p).network().0;
            if let Some(&ix) = index.buckets.get(&LpmIndex::key(p, network)) {
                return Some(self.entries[ix]);
            }
            lens &= !(1u64 << p);
        }
        None
    }

    /// Drop all memoized lookups. Called when the world around the table
    /// changes without the table itself changing — e.g. an interface is
    /// detached or reattached, which can invalidate which routes are
    /// usable even though the entries are identical.
    pub fn invalidate_cache(&self) {
        let mut cache = self.cache.borrow_mut();
        if !cache.is_empty() {
            cache.clear();
        }
    }
}

impl Clone for RouteTable {
    /// Clones rebuild an empty cache: memos are per-instance.
    fn clone(&self) -> RouteTable {
        let mut t = RouteTable::new();
        for &e in &self.entries {
            t.add(e);
        }
        t
    }
}

/// Equality is over the installed routes (caches are memos, not state).
impl PartialEq for RouteTable {
    fn eq(&self, other: &RouteTable) -> bool {
        self.entries == other.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn entry(cidr: &str, iface: usize) -> RouteEntry {
        let (a, p) = cidr.split_once('/').unwrap();
        RouteEntry {
            prefix: Ipv4Cidr::new(ip(a), p.parse().unwrap()),
            iface,
            gateway: None,
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.add(entry("0.0.0.0/0", 0));
        t.add(entry("10.0.0.0/8", 1));
        t.add(entry("10.1.0.0/16", 2));
        t.add(entry("10.1.2.0/24", 3));
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().iface, 3);
        assert_eq!(t.lookup(ip("10.1.9.9")).unwrap().iface, 2);
        assert_eq!(t.lookup(ip("10.9.9.9")).unwrap().iface, 1);
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().iface, 0);
    }

    #[test]
    fn duplicate_prefix_last_wins_like_lpm() {
        let mut t = RouteTable::new();
        let routes = [entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2)];
        for &r in &routes {
            t.add(r);
        }
        let dst = ip("10.5.5.5");
        assert_eq!(t.lookup(dst), lpm(&routes, dst));
        assert_eq!(t.lookup(dst).unwrap().iface, 2);
    }

    #[test]
    fn cache_serves_and_invalidates() {
        let mut t = RouteTable::new();
        t.add(entry("10.0.0.0/8", 1));
        let dst = ip("10.1.1.1");
        assert_eq!(t.lookup(dst).unwrap().iface, 1);
        // Cached now; adding a more specific route must invalidate it.
        t.add(entry("10.1.0.0/16", 2));
        assert_eq!(t.lookup(dst).unwrap().iface, 2);
        t.clear();
        assert_eq!(t.lookup(dst), None);
    }

    #[test]
    fn no_match_is_cached_too() {
        let mut t = RouteTable::new();
        t.add(entry("10.0.0.0/8", 1));
        assert_eq!(t.lookup(ip("192.168.1.1")), None);
        assert_eq!(t.lookup(ip("192.168.1.1")), None);
        t.invalidate_cache();
        assert_eq!(t.lookup(ip("192.168.1.1")), None);
    }

    #[test]
    fn small_tables_build_no_index() {
        let mut t = RouteTable::new();
        for i in 0..LINEAR_MAX {
            t.add(entry("10.0.0.0/8", i));
        }
        assert!(t.index.is_none(), "≤ LINEAR_MAX entries stay index-free");
        t.add(entry("10.1.0.0/16", 99));
        assert!(t.index.is_some(), "crossing the threshold builds the index");
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().iface, 99);
        // Every pre-threshold entry is reachable through the index too.
        assert_eq!(t.lookup(ip("10.9.9.9")).unwrap().iface, LINEAR_MAX - 1);
        t.clear();
        let retained = t.index.as_ref().expect("clear keeps the index shell");
        assert!(
            retained.buckets.is_empty() && retained.populated == 0,
            "cleared index must be empty"
        );
        t.add(entry("172.16.0.0/12", 7));
        assert_eq!(
            t.lookup(ip("172.16.1.1")).unwrap().iface,
            7,
            "a retained index serves a refilled table"
        );
    }

    #[test]
    fn matches_linear_lpm_on_a_spread_of_destinations() {
        let mut routes = Vec::new();
        let mut t = RouteTable::new();
        for i in 0..64u32 {
            let e = RouteEntry {
                prefix: Ipv4Cidr::new(Ipv4Addr(i * 0x0101_0101), (i % 33) as u8),
                iface: i as usize,
                gateway: None,
            };
            routes.push(e);
            t.add(e);
        }
        for i in 0..512u32 {
            let dst = Ipv4Addr(i.wrapping_mul(0x9e37_79b9));
            assert_eq!(t.lookup(dst), lpm(&routes, dst), "dst {dst}");
        }
    }
}

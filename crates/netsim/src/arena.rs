//! Global string interner: `u32` symbols for strings that live as long as
//! the process.
//!
//! Nothing in the simulator labels through it: a world keeps its node
//! names in one buffer of its own ([`crate::world::World::node_names`]),
//! so building one takes no lock and leaks nothing. What remains is the
//! interner itself, kept for the benchmark probe that times a warm hit;
//! it goes when that probe does.
//!
//! The interner is append-only: interned strings are leaked, and symbols
//! are handed out in first-intern order, so a deterministic intern order
//! yields deterministic symbols.

use std::sync::{Mutex, OnceLock};

use crate::hash::FxHashMap;

/// An interned string: a dense index into the global symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

struct Interner {
    /// string → symbol, keyed by the leaked `&'static str` so each
    /// distinct string is stored exactly once.
    map: FxHashMap<&'static str, u32>,
    /// symbol → string, in first-intern order.
    strings: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: FxHashMap::default(),
            strings: Vec::new(),
        })
    })
}

/// Intern `s`, returning its symbol. The first intern of a distinct
/// string leaks one copy of it; every subsequent call is a hash lookup.
pub fn intern(s: &str) -> Sym {
    let mut i = interner().lock().expect("interner poisoned");
    if let Some(&ix) = i.map.get(s) {
        return Sym(ix);
    }
    let ix = u32::try_from(i.strings.len()).expect("interner full");
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    i.strings.push(leaked);
    i.map.insert(leaked, ix);
    Sym(ix)
}

/// The string behind a symbol. Panics on a symbol that was never handed
/// out by [`intern`] (impossible through the public API).
pub fn resolve(sym: Sym) -> &'static str {
    interner().lock().expect("interner poisoned").strings[sym.0 as usize]
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let a = intern("arena-test-alpha");
        let b = intern("arena-test-beta");
        assert_ne!(a, b);
        assert_eq!(a, intern("arena-test-alpha"));
        assert_eq!(resolve(a), "arena-test-alpha");
        assert_eq!(resolve(b), "arena-test-beta");
    }

    #[test]
    fn display_goes_through_the_table() {
        let s = intern("arena-test-display");
        assert_eq!(s.to_string(), "arena-test-display");
    }
}

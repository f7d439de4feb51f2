//! The one hasher behind every map in the library.
//!
//! Every key a library map holds — addresses, node and packet ids, names —
//! is made by the simulation itself, never read from outside the program,
//! so no map needs SipHash's per-process random key. A fixed key buys three
//! things: the builder is zero-sized (std's `RandomState` carries 16 bytes
//! of seed in every map, four of them in every host), a hash is a multiply
//! per 8-byte word instead of SipHash rounds, and a map's probe sequence —
//! hence where insert/remove churn leaves tombstones and when the table
//! grows — is the same in every process, so allocation counts repeat
//! exactly.
//!
//! The fold is FxHash's (rustc's hasher): rotate, xor in the next word,
//! multiply by 2⁶⁴/φ. A plain fold leaves the low bits of the state, which
//! pick the bucket, depending only on the low bits of the key; `finish`
//! rotates the well-mixed high bits down so keys that differ above bit 8
//! (route prefixes, `/24` networks) still spread.
//!
//! No output may depend on a map's iteration order: a map that is walked
//! for output is sorted first or is a `BTreeMap`.
#![allow(clippy::disallowed_types)] // the one place std's hash maps are named

use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ divided by the golden ratio: the multiplier of the fold.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-key Fx-style hasher; see the module header.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// The zero-sized builder every library map uses.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `std::collections::HashMap` with the fixed-key hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `std::collections::HashSet` with the fixed-key hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte strings fold 8 bytes per step, the tail zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.fold(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn the_builder_is_zero_sized_and_the_hash_fixed() {
        assert_eq!(std::mem::size_of::<FxBuildHasher>(), 0);
        assert_eq!(hash(0x0a00_0001u32), hash(0x0a00_0001u32));
        assert_eq!(hash("node-7"), hash(String::from("node-7")));
    }

    #[test]
    fn strings_fold_by_the_word_and_their_tail_counts() {
        assert_ne!(hash("abcdefgh"), hash("abcdefgh\0"));
        assert_ne!(hash("abcdefghi"), hash("abcdefghj"));
        assert_ne!(hash(("ab", "c")), hash(("a", "bc")));
    }

    /// Keys that differ only above their low byte — `/24` networks, the
    /// route index's `(len << 32) | network` — must still differ in the
    /// low bits a table picks its bucket with.
    #[test]
    fn keys_with_zero_low_bytes_spread_over_buckets() {
        let mask = 0xff;
        let buckets: FxHashSet<u64> = (0..256u32)
            .map(|i| hash((24u64 << 32) | u64::from(i << 8)) & mask)
            .collect();
        assert!(buckets.len() > 128, "{} of 256 buckets", buckets.len());
    }
}

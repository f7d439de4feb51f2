//! Order statistics, the FNV-1a digest and the seeded input stream.

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// rule the benchmark contract's driver applies to ten runs, so a spread
/// printed here reads the same as the one it computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// FNV-1a, 64 bit: the `sim_digest` of a workload's deterministic outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer (little endian) into the digest.
    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

/// SplitMix64: the harness's input stream. `--seed` is its only state, so
/// the same seed always generates the same flow pairs and payloads; the
/// crates under test receive only those inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        let digest = |s: &str| {
            let mut f = Fnv::default();
            f.bytes(s.as_bytes());
            f.0
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        let mut f = Fnv::default();
        f.u64(1);
        let mut g = Fnv::default();
        g.bytes(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(f, g);
    }

    #[test]
    fn splitmix_matches_reference_and_stays_in_range() {
        // Reference outputs for seed 0 (Vigna's splitmix64.c).
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut r = SplitMix64(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
        let mut items: Vec<u32> = (0..16).collect();
        r.shuffle(&mut items);
        items.sort_unstable();
        assert_eq!(items, (0..16).collect::<Vec<_>>());
    }
}

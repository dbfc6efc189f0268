//! In-house FxHash-style hashing.
//!
//! The standard library's SipHash is robust against HashDoS but measurably slow
//! for the short integer/byte keys that dominate this workspace (attribute ids,
//! dictionary codes, row keys). DANCE never hashes adversarial input — all data
//! comes from local generators or the simulated marketplace — so we use the
//! FxHash multiply-xor scheme (the hasher used inside rustc) implemented here in
//! ~40 lines rather than pulling an external crate.
//!
//! The module also provides [`stable_hash64`] / [`unit_interval`] which back the
//! paper's *correlated sampling* (§3): a tuple is kept iff the hash of its join
//! key, mapped uniformly into `[0, 1)`, is below the sampling rate. That hash
//! must be (a) identical across tables and process runs and (b) well mixed, so
//! it gets a dedicated seeded finalizer rather than reusing `FxHasher` state.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: fast, non-cryptographic 64-bit hasher for trusted keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    /// Hasher starting from an explicit seed state — the streaming form of
    /// [`stable_hash64`]. Feeding this hasher the exact write sequence a
    /// `Hash` impl would produce, then finalizing with [`splitmix64`], yields
    /// bit-identical output to `stable_hash64(seed, value)`; the correlated
    /// sampler uses this to score dictionary-encoded rows without
    /// materializing `Value`s.
    #[inline]
    pub fn with_seed(seed: u64) -> FxHasher {
        FxHasher { state: seed }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Hash `value` with [`FxHasher`] under a caller-supplied seed and finalize with
/// a SplitMix64 avalanche so every output bit depends on every input bit.
///
/// This is the stable hash used by correlated sampling: the same (seed, value)
/// pair always produces the same output, across tables and across runs.
pub fn stable_hash64<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut h = FxHasher { state: seed };
    value.hash(&mut h);
    splitmix64(h.finish())
}

/// The 64-bit golden-ratio constant `⌊2⁶⁴/φ⌋`: splitmix64's increment, and
/// the stride every seed derivation in the workspace multiplies by.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer; full-avalanche bijection on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sub-seed `k` of `base`: `splitmix64(base ⊕ k·GOLDEN)`. Decorrelates a
/// sequence of indices (purchases, retries, connections) under one seed
/// while staying a pure function of `(base, k)`.
#[inline]
pub fn derive_seed(base: u64, k: u64) -> u64 {
    splitmix64(base ^ k.wrapping_mul(GOLDEN))
}

/// Map a 64-bit hash uniformly onto `[0, 1)` (53 mantissa bits are used).
#[inline]
pub fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        assert_eq!(stable_hash64(7, "abc"), stable_hash64(7, "abc"));
        assert_ne!(stable_hash64(7, "abc"), stable_hash64(8, "abc"));
        assert_ne!(stable_hash64(7, "abc"), stable_hash64(7, "abd"));
    }

    #[test]
    fn unit_interval_in_range_and_spread() {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit_interval(stable_hash64(42, &i));
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        // Uniformity sanity: mean near 0.5, extremes near the ends.
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn derive_seed_is_the_xor_golden_recipe() {
        for (base, k) in [(0u64, 0u64), (7, 1), (u64::MAX, 3), (0xC0FFEE, 1 << 40)] {
            assert_eq!(
                derive_seed(base, k),
                splitmix64(base ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            );
        }
    }

    #[test]
    fn splitmix_is_bijective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn fxhasher_handles_unaligned_tails() {
        // 1..=16 byte strings exercise the chunked + remainder paths.
        let mut outputs = std::collections::HashSet::new();
        for len in 1..=16 {
            let s: String = "x".repeat(len);
            outputs.insert(stable_hash64(0, s.as_str()));
        }
        assert_eq!(outputs.len(), 16);
    }
}

//! Small utilities shared across the workspace: a fast non-cryptographic
//! hasher (FxHash, reimplemented locally to avoid an external dependency)
//! and float helpers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of FxHash (as used in rustc / Firefox).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, DoS-*unsafe* hasher for internal hot paths (blocking keys,
/// interned key memos, q-gram profiles). Do **not** expose it to untrusted
/// adversarial input where HashDoS matters; duplicate detection workloads
/// control their own keys.
///
/// [`finish`](Hasher::finish) ends with a rotation (rustc-hash 2's
/// finalizer). Without it, hashing one packed `hi << 32 | lo` key leaves
/// `key · SEED`, whose low 32 bits depend on `lo` alone — and std's
/// `HashMap` picks the bucket from the low bits, so every key sharing a
/// `lo` (a prefix memo's constant prefix length, say) would share one
/// probe chain. The rotation brings the well-mixed high bits down.
///
/// Iteration order is layout, never output; every site that emits sorts
/// first.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Tolerance used when validating probability sums.
pub const PROB_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_discriminating() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b""), h(b"\0"));
        // Longer-than-8-byte inputs exercise the chunked path.
        assert_ne!(h(b"0123456789abcdef"), h(b"0123456789abcdeg"));
    }

    #[test]
    fn fx_map_works_as_drop_in() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.len(), 2);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    /// Packed `hi << 32 | lo` keys (the prefix and concat memos, the
    /// candidate seen-set) must spread over std's low-bit buckets: without
    /// the finalizer the first family lands in one bucket.
    #[test]
    fn packed_keys_spread_over_low_bit_buckets() {
        use std::hash::{BuildHasher, Hash};
        const N: u64 = 4096;
        fn max_bucket<K: Hash>(keys: impl Iterator<Item = K>) -> u32 {
            let build = BuildHasherDefault::<FxHasher>::default();
            let mut counts = vec![0u32; N as usize];
            for k in keys {
                counts[(build.hash_one(k) & (N - 1)) as usize] += 1;
            }
            assert_eq!(counts.iter().sum::<u32>(), N as u32);
            counts.into_iter().max().unwrap_or(0)
        }
        let families = [
            ("(k << 32) | 3", max_bucket((0..N).map(|k| (k << 32) | 3))),
            ("(3 << 32) | k", max_bucket((0..N).map(|k| (3 << 32) | k))),
            (
                "(lo << 32) | (lo + d)",
                max_bucket((0..512u64).flat_map(|lo| (1..=8).map(move |d| (lo << 32) | (lo + d)))),
            ),
            ("k as u32", max_bucket((0..N).map(|k| k as u32))),
        ];
        for (name, max) in families {
            assert!(max <= 8, "{name}: {max} keys share one low-12-bit bucket");
        }
    }
}

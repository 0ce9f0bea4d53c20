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
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Tolerance used when validating probability sums.
pub const PROB_EPS: f64 = 1e-9;

/// Whether two floats are equal within `eps` (absolute).
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

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

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
        assert!(!approx_eq(0.1, 0.2, 1e-3));
    }
}

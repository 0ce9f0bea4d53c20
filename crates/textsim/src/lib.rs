//! String and numeric similarity kernels for duplicate detection.
//!
//! This crate implements the *comparison functions* of the classical duplicate
//! detection literature (Elmagarmid et al., TKDE 2007; Batini & Scannapieco,
//! 2006) that "Duplicate Detection in Probabilistic Data" (Panse et al.,
//! ICDE 2010) incorporates into its probabilistic value matching (Section
//! III-C and Eq. 5 of the paper).
//!
//! All comparators are **normalized**: they return a similarity in `[0, 1]`
//! where `1.0` means identical and `0.0` means maximally dissimilar. The paper
//! explicitly restricts itself to normalized comparison functions (footnote 1)
//! so that comparison vectors live in `[0,1]^n`.
//!
//! # Kernels
//!
//! * [`NormalizedHamming`] — the kernel used in every worked example of the
//!   paper (`sim(Tim, Kim) = 2/3`, `sim(machinist, mechanic) = 5/9`, …).
//! * [`Levenshtein`] — edit distance, normalized.
//! * [`Jaro`] / [`JaroWinkler`] — the record-linkage classics.
//! * [`AbsoluteScaled`] — numeric closeness.
//! * [`Exact`] — the equality indicator.
//!
//! # Kernel tiers
//!
//! The hot kernels are layered so every input gets the fastest exact
//! implementation available (see [`bitparallel`]):
//!
//! 1. **Bit-parallel fast path** — chosen automatically when the inputs
//!    allow it: Myers' 1999 bit-vector algorithm for [`Levenshtein`]
//!    (single-`u64` for patterns ≤ 64 chars, Hyyrö's blocked multi-word
//!    form above), byte-chunked XOR + popcount for [`NormalizedHamming`]
//!    on ASCII, and a bitset matching scan for [`Jaro`] / [`JaroWinkler`]
//!    on ASCII inputs up to 128 bytes — one SWAR equality step per
//!    character against a second string of at most 16 bytes packed into a
//!    `u128`, a per-character position table for a longer one.
//! 2. **Scalar fallback** — the classical character-level loops, taken for
//!    non-ASCII or oversized inputs and retained as the exactness oracle:
//!    the fast path must produce bitwise-identical results, which the
//!    `bitparallel_oracle` property tests enforce on arbitrary Unicode
//!    strings across the 64/65-char word boundary.
//!
//! Callers that compare the same strings many times (the interned matching
//! path in `probdedup-matching`) precompute a [`PreparedText`] per distinct
//! string. Each kernel's one fast evaluation reads it:
//! [`StringComparator::similarity_prepared`] (exact) and
//! [`StringComparator::similarity_prepared_within`] (bounded: prefilters on
//! the prepared lengths and class masks, then the exact core) skip the
//! per-comparison ASCII scans and length counts. The [`Normalizer`] has a
//! matching single-allocation fast path for ASCII inputs on the
//! preparation side.
//!
//! # Example
//!
//! ```
//! use probdedup_textsim::{NormalizedHamming, StringComparator};
//!
//! let h = NormalizedHamming::new();
//! // The paper's Section IV-A example: sim(Tim, Kim) = 2/3.
//! assert!((h.similarity("Tim", "Kim") - 2.0 / 3.0).abs() < 1e-12);
//! ```

pub mod bitparallel;
pub mod hamming;
pub mod jaro;
pub mod levenshtein;
pub mod normalize;
pub mod numeric;
pub mod traits;

pub use bitparallel::{
    class_absent_bound, class_mask, hamming_bytes, myers_distance, myers_distance_within,
    PatternBits, PreparedText,
};
pub use hamming::NormalizedHamming;
pub use jaro::{Jaro, JaroWinkler};
pub use levenshtein::Levenshtein;
pub use normalize::Normalizer;
pub use numeric::AbsoluteScaled;
pub use traits::{Exact, SharedComparator, StringComparator};

#[cfg(test)]
mod crate_tests {
    use super::*;

    /// Every comparator exported at the top level must be normalized and
    /// reflexive on a sample of inputs. The per-module tests cover exact
    /// values; this is a cross-module smoke test.
    #[test]
    fn all_comparators_normalized_and_reflexive() {
        let comparators: Vec<Box<dyn StringComparator>> = vec![
            Box::new(NormalizedHamming::new()),
            Box::new(Levenshtein::new()),
            Box::new(Jaro::new()),
            Box::new(JaroWinkler::new()),
            Box::new(Exact),
        ];
        let samples = [
            ("", ""),
            ("a", ""),
            ("", "a"),
            ("Tim", "Tim"),
            ("Tim", "Kim"),
            ("machinist", "mechanic"),
            ("John", "Johan"),
            ("a longer string with spaces", "another string"),
        ];
        for c in &comparators {
            for (a, b) in samples {
                let s = c.similarity(a, b);
                assert!((0.0..=1.0).contains(&s), "{}({a:?},{b:?}) = {s}", c.name());
                if a == b {
                    assert!(
                        (s - 1.0).abs() < 1e-12,
                        "{} not reflexive on {a:?}",
                        c.name()
                    );
                }
            }
        }
    }
}

//! Normalized Hamming similarity — the kernel of the paper's worked examples.

use crate::bitparallel::{class_absent_bound, hamming_bytes, PreparedText};
use crate::traits::{StringComparator, BOUND_SLACK};

/// Normalized Hamming similarity.
///
/// Characters are compared position by position; the similarity is the number
/// of matching positions divided by the length of the **longer** string, so
/// strings of different lengths are penalized for every unmatched trailing
/// position. This is the convention under which the paper's examples hold:
///
/// * `sim(Tim, Kim) = 2/3` (Section IV-A),
/// * `sim(machinist, mechanic) = 5/9`,
/// * `sim(Jim, Tom) = 1/3`, `sim(Tim, Tom) = 2/3` (Fig. 7 discussion).
///
/// Comparison is on Unicode scalar values (`char`), not bytes, so multi-byte
/// characters count as single positions. Comparison is case-sensitive, as
/// in the paper; `Normalizer::standard` lower-cases values before matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizedHamming;

impl NormalizedHamming {
    /// A normalized Hamming comparator.
    pub fn new() -> Self {
        Self
    }

    /// Raw Hamming distance: number of differing positions, counting the
    /// length difference as mismatches.
    ///
    /// ASCII pairs take a byte-sliced path (XOR + popcount, eight
    /// positions per `u64` step); anything else falls back to the scalar
    /// character walk of [`distance_scalar`](Self::distance_scalar).
    pub fn distance(&self, a: &str, b: &str) -> usize {
        if a.is_ascii() && b.is_ascii() {
            hamming_bytes(a.as_bytes(), b.as_bytes())
        } else {
            self.distance_scalar(a, b)
        }
    }

    /// The scalar character-by-character walk: the non-ASCII path of
    /// [`distance`](Self::distance) and the exactness oracle its byte-
    /// sliced fast path is property-tested against.
    pub fn distance_scalar(&self, a: &str, b: &str) -> usize {
        let (mut dist, mut len_a, mut len_b) = (0usize, 0usize, 0usize);
        let mut ita = a.chars();
        let mut itb = b.chars();
        loop {
            match (ita.next(), itb.next()) {
                (Some(ca), Some(cb)) => {
                    len_a += 1;
                    len_b += 1;
                    dist += usize::from(ca != cb);
                }
                (Some(_), None) => {
                    len_a += 1;
                    dist += 1;
                }
                (None, Some(_)) => {
                    len_b += 1;
                    dist += 1;
                }
                (None, None) => break,
            }
        }
        debug_assert!(dist <= len_a.max(len_b));
        dist
    }
}

impl StringComparator for NormalizedHamming {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 1.0; // both empty: identical
        }
        1.0 - self.distance(a, b) as f64 / max_len as f64
    }

    fn name(&self) -> &str {
        "hamming"
    }

    fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        let max_len = a.char_len().max(b.char_len());
        if max_len == 0 {
            return 1.0;
        }
        // The prepared ASCII class replaces the per-comparison is_ascii
        // scans of `distance`.
        let d = if a.is_ascii() && b.is_ascii() {
            hamming_bytes(a.text().as_bytes(), b.text().as_bytes())
        } else {
            self.distance_scalar(a.text(), b.text())
        };
        1.0 - d as f64 / max_len as f64
    }

    fn similarity_prepared_within(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        bound: f64,
    ) -> Option<f64> {
        let max_len = a.char_len().max(b.char_len());
        if max_len == 0 {
            return Some(1.0);
        }
        // Every unmatched position counts: d ≥ the length gap, and d ≥ the
        // distinct characters of one side absent from the other.
        let d_lb = a
            .char_len()
            .abs_diff(b.char_len())
            .max(class_absent_bound(a.class(), b.class()));
        if 1.0 - d_lb as f64 / max_len as f64 + BOUND_SLACK < bound {
            return None;
        }
        Some(self.similarity_prepared(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn paper_example_tim_kim() {
        // Section IV-A: α = 2/3 under the normalized Hamming distance.
        let h = NormalizedHamming::new();
        assert!((h.similarity("Tim", "Kim") - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn paper_example_machinist_mechanic() {
        // Section IV-A: sim(machinist, mechanic) = 5/9.
        let h = NormalizedHamming::new();
        assert!((h.similarity("machinist", "mechanic") - 5.0 / 9.0).abs() < EPS);
    }

    #[test]
    fn paper_example_fig7_names() {
        // Fig. 7 walkthrough: sim(Jim, Tom) = 1/3 and sim(Tim, Tom) = 2/3.
        let h = NormalizedHamming::new();
        assert!((h.similarity("Jim", "Tom") - 1.0 / 3.0).abs() < EPS);
        assert!((h.similarity("Tim", "Tom") - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn length_difference_counts_as_mismatch() {
        let h = NormalizedHamming::new();
        // "ab" vs "abcd": 2 matches out of 4 positions.
        assert!((h.similarity("ab", "abcd") - 0.5).abs() < EPS);
        // Completely disjoint lengths.
        assert_eq!(h.similarity("", "abcd"), 0.0);
    }

    #[test]
    fn empty_strings_are_identical() {
        assert_eq!(NormalizedHamming::new().similarity("", ""), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let h = NormalizedHamming::new();
        assert_eq!(h.distance("abc", "abcdef"), h.distance("abcdef", "abc"));
        assert_eq!(
            h.distance("kitten", "sitting"),
            h.distance("sitting", "kitten")
        );
    }

    #[test]
    fn unicode_chars_count_as_single_positions() {
        let h = NormalizedHamming::new();
        // "né" vs "ne": one of two positions differs.
        assert!((h.similarity("né", "ne") - 0.5).abs() < EPS);
    }

    #[test]
    fn byte_sliced_path_agrees_with_scalar_oracle() {
        let long_a = "a fairly long ascii string, enough for two u64 chunks";
        let long_b = "a fairly long ASCII string; enough for two u64 chunks!";
        let h = NormalizedHamming::new();
        for (a, b) in [
            ("Tim", "Kim"),
            ("machinist", "mechanic"),
            ("", "abcd"),
            (long_a, long_b),
        ] {
            assert_eq!(h.distance(a, b), h.distance_scalar(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn prepared_similarity_matches_unprepared() {
        use crate::bitparallel::PreparedText;
        let h = NormalizedHamming::new();
        for (a, b) in [("Tim", "Kim"), ("né", "ne"), ("", ""), ("ab", "abcd")] {
            let pa = PreparedText::new(a);
            let pb = PreparedText::new(b);
            assert_eq!(
                h.similarity_prepared(&pa, &pb).to_bits(),
                h.similarity(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }
}

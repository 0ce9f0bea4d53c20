//! Exactness property tests for the bit-parallel kernel tier: the
//! word-level fast paths must produce the **same integers** (and hence
//! bitwise-identical normalized similarities) as the scalar reference
//! implementations they replace, on arbitrary Unicode strings up to
//! length 200 — comfortably past the 64/65-character Myers word boundary.

use proptest::prelude::*;

use probdedup_textsim::jaro::jaro_similarity_scalar;
use probdedup_textsim::{
    Jaro, JaroWinkler, Levenshtein, NormalizedHamming, PatternBits, PreparedText, StringComparator,
};

/// A character class mixing ASCII with multi-byte scalars so both the
/// byte-sliced fast paths and the Unicode fallbacks are exercised (the
/// shim's `.` only draws printable ASCII).
const MIXED: &str = "[aAbB xyz09àéüßñ日本語中]{0,200}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Myers' bit-vector Levenshtein equals the two-row DP, printable ASCII.
    #[test]
    fn levenshtein_matches_scalar_ascii(a in ".{0,200}", b in ".{0,200}") {
        let l = Levenshtein::new();
        prop_assert_eq!(l.distance(&a, &b), l.distance_scalar(&a, &b), "{:?} vs {:?}", a, b);
    }

    /// Myers' bit-vector Levenshtein equals the two-row DP, mixed Unicode.
    #[test]
    fn levenshtein_matches_scalar_unicode(a in MIXED, b in MIXED) {
        let l = Levenshtein::new();
        prop_assert_eq!(l.distance(&a, &b), l.distance_scalar(&a, &b), "{:?} vs {:?}", a, b);
    }

    /// The prepared path (per-string Peq tables) is bitwise-identical to
    /// the unprepared similarity, with and without pattern bits.
    #[test]
    fn levenshtein_prepared_matches(a in MIXED, b in MIXED, bits in any::<bool>()) {
        let l = Levenshtein::new();
        let pa = PreparedText::new(&a, bits);
        let pb = PreparedText::new(&b, bits);
        prop_assert_eq!(
            l.similarity_prepared(&pa, &pb).to_bits(),
            l.similarity(&a, &b).to_bits(),
            "{:?} vs {:?} (bits: {})", a, b, bits
        );
    }

    /// Byte-sliced XOR+popcount Hamming equals the character walk.
    #[test]
    fn hamming_matches_scalar(a in ".{0,200}", b in MIXED) {
        for h in [NormalizedHamming::new(), NormalizedHamming::case_insensitive()] {
            prop_assert_eq!(h.distance(&a, &b), h.distance_scalar(&a, &b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(h.distance(&a, &a), 0);
        }
    }

    /// The bitset Jaro scan is bitwise-identical to the scalar Jaro, and
    /// Jaro-Winkler (boost on top) inherits the equality.
    #[test]
    fn jaro_matches_scalar(a in ".{0,120}", b in MIXED) {
        prop_assert_eq!(
            Jaro::new().similarity(&a, &b).to_bits(),
            jaro_similarity_scalar(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
        let jw = JaroWinkler::new();
        let pa = PreparedText::new(&a, false);
        let pb = PreparedText::new(&b, false);
        prop_assert_eq!(
            jw.similarity_prepared(&pa, &pb).to_bits(),
            jw.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// The SWAR lane scan (`b` of at most 16 bytes) and the position-table
    /// path either side of it, over a three-letter alphabet with NUL so
    /// that matches are dense, a NUL in `a` meets the zero padding of the
    /// lanes, and all 16 lanes of `b` get matched before a longer `a` ends.
    #[test]
    fn jaro_lane_scan_matches_scalar(a in "[ab\0]{0,128}", b in "[ab\0]{0,17}") {
        prop_assert_eq!(
            Jaro::new().similarity(&a, &b).to_bits(),
            jaro_similarity_scalar(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
        let jw = JaroWinkler::new();
        let pa = PreparedText::new(&a, false);
        let pb = PreparedText::new(&b, false);
        prop_assert_eq!(
            jw.similarity_prepared(&pa, &pb).to_bits(),
            jw.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// `distance_within(a, b, k)` agrees with `distance(a, b)` clamped at
    /// `k + 1`: `Some(d)` exactly when `d ≤ k`, `None` otherwise — across
    /// mixed Unicode strings and the whole bound range around the true
    /// distance.
    #[test]
    fn distance_within_matches_clamped_distance(a in MIXED, b in MIXED, extra in 0usize..6) {
        let l = Levenshtein::new();
        let d = l.distance_scalar(&a, &b);
        for k in [0, d.saturating_sub(2), d.saturating_sub(1), d, d + 1, d + extra] {
            let got = l.distance_within(&a, &b, k);
            prop_assert_eq!(got, (d <= k).then_some(d), "{:?} vs {:?} at k={}", a, b, k);
        }
        // Prepared twin, with and without precomputed pattern bits.
        for bits in [false, true] {
            let pa = PreparedText::new(&a, bits);
            let pb = PreparedText::new(&b, bits);
            for k in [0, d.saturating_sub(1), d, d + extra] {
                prop_assert_eq!(
                    l.distance_prepared_within(&pa, &pb, k),
                    (d <= k).then_some(d),
                    "prepared {:?} vs {:?} at k={} (bits {})", a, b, k, bits
                );
            }
        }
    }

    /// `similarity_within` certificates are sound and `Some` values exact,
    /// for every bounded kernel, on arbitrary bounds.
    #[test]
    fn similarity_within_certificates_sound(a in MIXED, b in MIXED, cut in 0u32..=100) {
        let bound = f64::from(cut) / 100.0;
        let kernels: [&dyn StringComparator; 5] = [
            &Levenshtein::new(),
            &Jaro::new(),
            &JaroWinkler::new(),
            &NormalizedHamming::new(),
            &NormalizedHamming::case_insensitive(),
        ];
        for k in kernels {
            let exact = k.similarity(&a, &b);
            match k.similarity_within(&a, &b, bound) {
                Some(s) => prop_assert_eq!(
                    s.to_bits(), exact.to_bits(),
                    "{}: inexact Some on {:?} vs {:?}", k.name(), a, b
                ),
                None => prop_assert!(
                    exact < bound,
                    "{}: bad certificate on {:?} vs {:?}: {} >= {}",
                    k.name(), a, b, exact, bound
                ),
            }
            let pa = PreparedText::new(&a, k.wants_pattern_bits());
            let pb = PreparedText::new(&b, k.wants_pattern_bits());
            match k.similarity_prepared_within(&pa, &pb, bound) {
                Some(s) => prop_assert_eq!(s.to_bits(), exact.to_bits(), "{} prepared", k.name()),
                None => prop_assert!(exact < bound, "{} prepared certificate", k.name()),
            }
        }
    }

    /// Bounded Myers around the 64/65-char word boundary: the banded
    /// multi-word path must agree with the clamped scalar distance.
    #[test]
    fn distance_within_word_boundary(
        pat_len in 60usize..=68,
        text in ".{0,200}",
        seed in any::<u64>(),
        k in 0usize..100,
    ) {
        let pattern: String = (0..pat_len)
            .map(|i| char::from(b'a' + ((seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 26) as u8))
            .collect();
        let l = Levenshtein::new();
        let d = l.distance_scalar(&pattern, &text);
        prop_assert_eq!(
            l.distance_within(&pattern, &text, k),
            (d <= k).then_some(d),
            "len {} pattern vs {:?} at k={}", pat_len, text, k
        );
        // Drive the banded kernel directly (no pattern/text swap) so the
        // multi-word band runs even when the text is the shorter side.
        if pattern.chars().count().abs_diff(text.chars().count()) <= k {
            prop_assert_eq!(
                probdedup_textsim::myers_distance_within(&PatternBits::new(&pattern), &text, k),
                (d <= k).then_some(d)
            );
        }
    }

    /// The single-word / multi-word Myers hand-off: patterns drawn right
    /// around 64 characters against texts of any length.
    #[test]
    fn myers_word_boundary(pat_len in 60usize..=68, text in ".{0,200}", seed in any::<u64>()) {
        // Deterministic pseudo-random ASCII pattern of exactly pat_len.
        let pattern: String = (0..pat_len)
            .map(|i| char::from(b'a' + ((seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 26) as u8))
            .collect();
        let l = Levenshtein::new();
        prop_assert_eq!(
            l.distance(&pattern, &text),
            l.distance_scalar(&pattern, &text),
            "len {} pattern vs {:?}", pat_len, text
        );
        prop_assert_eq!(
            myers_at(&pattern, &text),
            l.distance_scalar(&pattern, &text)
        );
    }
}

/// Drive `myers_distance` directly (no length-based pattern/text swap) so
/// the blocked path is hit whenever the pattern exceeds 64 chars even if
/// the text is shorter.
fn myers_at(pattern: &str, text: &str) -> usize {
    probdedup_textsim::myers_distance(&PatternBits::new(pattern), text)
}

/// Exhaustive sweep of the 63/64/65 boundary with edits planted on the
/// word seam — the off-by-one trap the blocked carry logic must survive.
#[test]
fn myers_block_boundary_sweep() {
    let l = Levenshtein::new();
    for len in [63usize, 64, 65, 66, 127, 128, 129, 200] {
        let a: String = ('a'..='z').cycle().take(len).collect();
        // Substitution at the last position of word 0 and first of word 1.
        for edit_at in [0usize, 62, 63, 64, 65].iter().filter(|&&i| i + 1 < len) {
            let mut b: Vec<char> = a.chars().collect();
            b[*edit_at] = 'Z';
            let b: String = b.into_iter().collect();
            assert_eq!(
                l.distance(&a, &b),
                l.distance_scalar(&a, &b),
                "len {len}, edit at {edit_at}"
            );
            assert_eq!(myers_at(&a, &b), l.distance_scalar(&a, &b));
        }
        // Deletion straddling the seam changes alignment, not just cost.
        if len > 65 {
            let b: String = a.chars().take(63).chain(a.chars().skip(66)).collect();
            assert_eq!(
                l.distance(&a, &b),
                l.distance_scalar(&a, &b),
                "len {len} deletion"
            );
        }
    }
}

/// Empty-input short-circuits (the allocation bugfix) keep exact
/// semantics.
#[test]
fn empty_input_short_circuits() {
    let l = Levenshtein::new();
    assert_eq!(l.distance("", ""), 0);
    assert_eq!(l.distance("", "日本語"), 3);
    assert_eq!(l.distance("abc", ""), 3);
    assert_eq!(l.similarity("", ""), 1.0);
}

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
/// A short edit appended to a prefix for near duplicates (often empty, so
/// the pair is a prefix pair).
const TAIL: &str = "[aAbB xyz09àéüßñ日本語中]{0,3}";

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

    /// The prepared path (lengths and ASCII class from the preparation)
    /// is bitwise-identical to the unprepared similarity.
    #[test]
    fn levenshtein_prepared_matches(a in MIXED, b in MIXED) {
        let l = Levenshtein::new();
        let pa = PreparedText::new(&a);
        let pb = PreparedText::new(&b);
        prop_assert_eq!(
            l.similarity_prepared(&pa, &pb).to_bits(),
            l.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// Byte-sliced XOR+popcount Hamming equals the character walk.
    #[test]
    fn hamming_matches_scalar(a in ".{0,200}", b in MIXED) {
        let h = NormalizedHamming::new();
        prop_assert_eq!(h.distance(&a, &b), h.distance_scalar(&a, &b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(h.distance(&a, &a), 0);
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
        let pa = PreparedText::new(&a);
        let pb = PreparedText::new(&b);
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
        let pa = PreparedText::new(&a);
        let pb = PreparedText::new(&b);
        prop_assert_eq!(
            jw.similarity_prepared(&pa, &pb).to_bits(),
            jw.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// `distance_prepared_within(a, b, k)` agrees with the scalar distance
    /// clamped at `k + 1`: `Some(d)` exactly when `d ≤ k`, `None`
    /// otherwise — across mixed Unicode strings (the per-call
    /// `PatternBits` arm) and the whole bound range around the true
    /// distance, on an unrelated pair and on a near duplicate.
    #[test]
    fn distance_within_matches_clamped_distance(
        a in MIXED,
        b in MIXED,
        keep in 0usize..=200,
        tail in TAIL,
        extra in 0usize..6,
    ) {
        let l = Levenshtein::new();
        let near = near_duplicate(&a, keep, &tail);
        for (x, y) in [(&a, &b), (&a, &near)] {
            let d = l.distance_scalar(x, y);
            let (px, py) = (PreparedText::new(x), PreparedText::new(y));
            for k in [0, d.saturating_sub(2), d.saturating_sub(1), d, d + 1, d + extra] {
                prop_assert_eq!(
                    l.distance_prepared_within(&px, &py, k),
                    (d <= k).then_some(d),
                    "{:?} vs {:?} at k={}", x, y, k
                );
            }
        }
    }

    /// `similarity_prepared_within` certificates are sound and `Some`
    /// values exact (bitwise equal to the unprepared similarity), for
    /// every bounded kernel, on an arbitrary cut and on the exact
    /// similarity itself (where any certificate is wrong), over an
    /// unrelated pair and a near duplicate (where the prefilters' bounds
    /// are often tight).
    #[test]
    fn similarity_within_certificates_sound(
        a in MIXED,
        b in MIXED,
        keep in 0usize..=200,
        tail in TAIL,
        cut in 0u32..=100,
    ) {
        let kernels: [&dyn StringComparator; 4] = [
            &Levenshtein::new(),
            &Jaro::new(),
            &JaroWinkler::new(),
            &NormalizedHamming::new(),
        ];
        let near = near_duplicate(&a, keep, &tail);
        for (x, y) in [(&a, &b), (&a, &near)] {
            let (px, py) = (PreparedText::new(x), PreparedText::new(y));
            for k in kernels {
                let exact = k.similarity(x, y);
                for bound in [f64::from(cut) / 100.0, exact] {
                    match k.similarity_prepared_within(&px, &py, bound) {
                        Some(s) => prop_assert_eq!(
                            s.to_bits(), exact.to_bits(),
                            "{}: inexact Some on {:?} vs {:?}", k.name(), x, y
                        ),
                        None => prop_assert!(
                            exact < bound,
                            "{}: bad certificate on {:?} vs {:?}: {} >= {}",
                            k.name(), x, y, exact, bound
                        ),
                    }
                }
            }
        }
    }

    /// Bounded Myers around the 64/65-char word boundary: the prepared
    /// bounded distance — the stack-`Peq` arm up to 64 pattern bytes, the
    /// per-call `PatternBits` banded multi-word arm above — must agree
    /// with the clamped scalar distance.
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
            l.distance_prepared_within(&PreparedText::new(&pattern), &PreparedText::new(&text), k),
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

/// A near duplicate of `a`: its first `keep` characters plus `tail`.
fn near_duplicate(a: &str, keep: usize, tail: &str) -> String {
    a.chars().take(keep).chain(tail.chars()).collect()
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

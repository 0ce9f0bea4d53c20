//! Jaro and Jaro-Winkler similarity, the record-linkage standards cited by
//! the paper ("edit- or jaro distance", Section III-C).

use crate::bitparallel::{class_absent_counts, jaro_ascii, PreparedText, JARO_ASCII_MAX};
use crate::traits::{StringComparator, BOUND_SLACK};

/// What the class-mask prefilter can say about a Jaro-family similarity.
enum JaroPrefilter {
    /// No shared characters at all: the similarity is exactly `0.0` (and
    /// the Winkler prefix bonus is vacuous — a shared prefix character
    /// would be a shared character).
    ExactZero,
    /// A certified upper bound on the **Jaro** similarity.
    UpperBound(f64),
}

/// Upper-bound the Jaro similarity from character lengths and class masks:
/// the match count `m` is at most `min(|a| − a_only, |b| − b_only)` (each
/// certified-absent character pins an unmatchable position), and the
/// transposition term is at most 1.
fn jaro_prefilter(la: usize, lb: usize, ma: u128, mb: u128) -> JaroPrefilter {
    if la == 0 || lb == 0 {
        // Exact by the kernel's own conventions (1.0 iff both empty).
        return JaroPrefilter::UpperBound(if la == 0 && lb == 0 { 1.0 } else { 0.0 });
    }
    let (a_only, b_only) = class_absent_counts(ma, mb);
    let m_ub = (la - a_only.min(la)).min(lb - b_only.min(lb));
    if m_ub == 0 {
        return JaroPrefilter::ExactZero;
    }
    let m = m_ub as f64;
    JaroPrefilter::UpperBound((m / la as f64 + m / lb as f64 + 1.0) / 3.0)
}

/// Jaro similarity.
///
/// Defined as `(m/|a| + m/|b| + (m − t)/m) / 3` where `m` is the number of
/// matching characters (equal characters within a window of
/// `max(|a|,|b|)/2 − 1`) and `t` is half the number of transpositions among
/// the matched characters. Returns `0.0` when there are no matches, `1.0` for
/// two empty strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaro {
    _priv: (),
}

impl Jaro {
    /// A new Jaro comparator.
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

/// Core Jaro computation shared by [`Jaro`] and [`JaroWinkler`]: ASCII
/// pairs short enough for a `u128` matched-set go through the
/// allocation-free bitset scan of [`jaro_ascii`]; everything else takes
/// the scalar path.
fn jaro_similarity(a: &str, b: &str) -> f64 {
    if a.len() <= JARO_ASCII_MAX && b.len() <= JARO_ASCII_MAX && a.is_ascii() && b.is_ascii() {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        jaro_similarity_scalar(a, b)
    }
}

/// The scalar `Vec<char>`-based Jaro: the general-input path and the
/// exactness oracle the bitset scan is property-tested against (both
/// produce the same match set, transposition count and final expression,
/// so results are bitwise identical).
pub fn jaro_similarity_scalar(a: &str, b: &str) -> f64 {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let (n, m) = (av.len(), bv.len());
    if n == 0 && m == 0 {
        return 1.0;
    }
    if n == 0 || m == 0 {
        return 0.0;
    }
    let window = (n.max(m) / 2).saturating_sub(1);
    let mut b_matched = vec![false; m];
    let mut a_matches: Vec<char> = Vec::new();
    for (i, ca) in av.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(m);
        for j in lo..hi {
            if !b_matched[j] && bv[j] == *ca {
                b_matched[j] = true;
                a_matches.push(*ca);
                break;
            }
        }
    }
    let matches = a_matches.len();
    if matches == 0 {
        return 0.0;
    }
    let b_matches: Vec<char> = bv
        .iter()
        .zip(b_matched.iter())
        .filter_map(|(c, &used)| used.then_some(*c))
        .collect();
    let transpositions = a_matches
        .iter()
        .zip(b_matches.iter())
        .filter(|(x, y)| x != y)
        .count();
    let m_f = matches as f64;
    (m_f / n as f64 + m_f / m as f64 + (m_f - transpositions as f64 / 2.0) / m_f) / 3.0
}

/// [`jaro_similarity`] over prepared strings: the precomputed ASCII class
/// replaces the per-comparison `is_ascii` scans.
fn jaro_prepared(a: &PreparedText, b: &PreparedText) -> f64 {
    if a.is_ascii()
        && b.is_ascii()
        && a.char_len() <= JARO_ASCII_MAX
        && b.char_len() <= JARO_ASCII_MAX
    {
        jaro_ascii(a.text().as_bytes(), b.text().as_bytes())
    } else {
        jaro_similarity_scalar(a.text(), b.text())
    }
}

impl StringComparator for Jaro {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        jaro_similarity(a, b)
    }

    fn name(&self) -> &str {
        "jaro"
    }

    fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        jaro_prepared(a, b)
    }

    fn similarity_prepared_within(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        bound: f64,
    ) -> Option<f64> {
        match jaro_prefilter(a.char_len(), b.char_len(), a.class(), b.class()) {
            JaroPrefilter::ExactZero => Some(0.0),
            JaroPrefilter::UpperBound(ub) if ub + BOUND_SLACK < bound => None,
            _ => Some(jaro_prepared(a, b)),
        }
    }
}

/// Prefix characters that earn the Winkler bonus.
const MAX_PREFIX: usize = 4;
/// Bonus per shared prefix character; `MAX_PREFIX · PREFIX_SCALE ≤ 1`
/// keeps the result in `[0, 1]`.
const PREFIX_SCALE: f64 = 0.1;
/// Only a Jaro value at or above this is boosted (Winkler's 0.7).
const BOOST_THRESHOLD: f64 = 0.7;

/// Jaro-Winkler similarity: Jaro boosted by a common-prefix bonus.
///
/// `JW = J + ℓ · p · (1 − J)` where `ℓ` is the length of the common prefix
/// (capped at 4) and `p = 0.1` the prefix scale; Jaro values below 0.7
/// are not boosted. These are the conventional parameters, fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JaroWinkler;

impl JaroWinkler {
    /// A Jaro-Winkler comparator.
    pub fn new() -> Self {
        Self
    }

    /// The common-prefix boost applied on top of a Jaro similarity `j`.
    fn boost(j: f64, a: &str, b: &str) -> f64 {
        if j < BOOST_THRESHOLD {
            return j;
        }
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(MAX_PREFIX)
            .take_while(|(x, y)| x == y)
            .count();
        (j + prefix as f64 * PREFIX_SCALE * (1.0 - j)).min(1.0)
    }

    /// Upper-bound the **boosted** similarity given an upper bound on the
    /// plain Jaro value: `x ↦ x + ℓ·p·(1 − x)` is non-decreasing for
    /// `ℓ·p ≤ 1`, and a below-threshold Jaro (no boost) is bounded by the
    /// boosted expression too since the bonus is non-negative.
    fn boost_upper_bound(jaro_ub: f64) -> f64 {
        let c = MAX_PREFIX as f64 * PREFIX_SCALE;
        (jaro_ub + c * (1.0 - jaro_ub)).min(1.0)
    }
}

impl StringComparator for JaroWinkler {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        Self::boost(jaro_similarity(a, b), a, b)
    }

    fn name(&self) -> &str {
        "jaro-winkler"
    }

    fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        Self::boost(jaro_prepared(a, b), a.text(), b.text())
    }

    fn similarity_prepared_within(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        bound: f64,
    ) -> Option<f64> {
        match jaro_prefilter(a.char_len(), b.char_len(), a.class(), b.class()) {
            // No shared characters: Jaro is 0 and the prefix bonus vacuous.
            JaroPrefilter::ExactZero => Some(0.0),
            JaroPrefilter::UpperBound(ub) if Self::boost_upper_bound(ub) + BOUND_SLACK < bound => {
                None
            }
            _ => Some(self.similarity_prepared(a, b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-3;

    #[test]
    fn classic_jaro_values() {
        let j = Jaro::new();
        assert!((j.similarity("MARTHA", "MARHTA") - 0.944).abs() < EPS);
        assert!((j.similarity("DWAYNE", "DUANE") - 0.822).abs() < EPS);
        assert!((j.similarity("DIXON", "DICKSONX") - 0.767).abs() < EPS);
    }

    #[test]
    fn classic_jaro_winkler_values() {
        let jw = JaroWinkler::new();
        assert!((jw.similarity("MARTHA", "MARHTA") - 0.961).abs() < EPS);
        assert!((jw.similarity("DWAYNE", "DUANE") - 0.840).abs() < EPS);
        assert!((jw.similarity("DIXON", "DICKSONX") - 0.813).abs() < EPS);
    }

    #[test]
    fn no_common_characters() {
        assert_eq!(Jaro::new().similarity("abc", "xyz"), 0.0);
        assert_eq!(JaroWinkler::new().similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(Jaro::new().similarity("", ""), 1.0);
        assert_eq!(Jaro::new().similarity("", "abc"), 0.0);
        assert_eq!(JaroWinkler::new().similarity("", ""), 1.0);
    }

    #[test]
    fn winkler_never_below_jaro() {
        let j = Jaro::new();
        let jw = JaroWinkler::new();
        for (a, b) in [
            ("prefix", "prefixed"),
            ("MARTHA", "MARHTA"),
            ("abcdef", "abcfed"),
            ("same", "same"),
        ] {
            assert!(jw.similarity(a, b) >= j.similarity(a, b) - 1e-12);
        }
    }

    #[test]
    fn symmetric() {
        let jw = JaroWinkler::new();
        for (a, b) in [("DWAYNE", "DUANE"), ("Tim", "Timothy"), ("x", "")] {
            assert!((jw.similarity(a, b) - jw.similarity(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn bitset_path_agrees_with_scalar_oracle() {
        let long: String = "the quick brown fox jumps over the lazy dog ".repeat(3);
        let cases = [
            ("MARTHA", "MARHTA"),
            ("DIXON", "DICKSONX"),
            ("", "abc"),
            ("aaaa", "aaaa"),
            (long.trim_end(), "the quick brown fox"),
        ];
        for (a, b) in cases {
            assert_eq!(
                Jaro::new().similarity(a, b).to_bits(),
                jaro_similarity_scalar(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
        // Non-ASCII and over-long inputs route to the scalar path.
        let over = "x".repeat(200);
        assert_eq!(
            Jaro::new().similarity(&over, "x").to_bits(),
            jaro_similarity_scalar(&over, "x").to_bits()
        );
        assert_eq!(
            Jaro::new().similarity("café", "cafe").to_bits(),
            jaro_similarity_scalar("café", "cafe").to_bits()
        );
    }

    #[test]
    fn prepared_similarity_matches_unprepared() {
        use crate::bitparallel::PreparedText;
        let jw = JaroWinkler::new();
        let j = Jaro::new();
        for (a, b) in [
            ("MARTHA", "MARHTA"),
            ("café", "cafe"),
            ("", ""),
            ("pref", "prefix"),
        ] {
            let pa = PreparedText::new(a);
            let pb = PreparedText::new(b);
            assert_eq!(
                j.similarity_prepared(&pa, &pb).to_bits(),
                j.similarity(a, b).to_bits()
            );
            assert_eq!(
                jw.similarity_prepared(&pa, &pb).to_bits(),
                jw.similarity(a, b).to_bits()
            );
        }
    }

    /// The conventional parameters, pinned bit for bit through
    /// `similarity`, `similarity_prepared` and `similarity_prepared_within`
    /// at a 0.72 bound: the 1e-3 tolerances above cannot see a changed
    /// scale, cap or threshold.
    #[test]
    fn pinned_bits() {
        use crate::bitparallel::PreparedText;
        // (a, b, exact bits, certified below 0.72)
        let pins: [(&str, &str, u64, bool); 9] = [
            ("MARTHA", "MARHTA", 0x3feec16c16c16c17, false),
            ("DWAYNE", "DUANE", 0x3feae147ae147ae2, false),
            ("DIXON", "DICKSONX", 0x3fea06d3a06d3a06, false),
            // Jaro below the boost threshold: no bonus despite the "m".
            ("machinist", "mechanic", 0x3fe5555555555555, false),
            ("smith", "garcia", 0x3fdd27d27d27d27d, true),
            // Shared prefixes longer than the cap of 4.
            ("prefixes", "prefixed", 0x3fee666666666666, false),
            ("Johannes", "Johannsen", 0x3fee7d27d27d27d2, false),
            // Non-ASCII: the scalar path.
            ("café liégeois", "cafe liegeois", 0x3fed061632d78a90, false),
            ("Müller", "Mueller", 0x3fe9bcb564efe898, false),
        ];
        let jw = JaroWinkler::new();
        for (a, b, bits, below) in pins {
            let (pa, pb) = (PreparedText::new(a), PreparedText::new(b));
            assert_eq!(jw.similarity(a, b).to_bits(), bits, "{a:?} vs {b:?}");
            assert_eq!(jw.similarity_prepared(&pa, &pb).to_bits(), bits);
            let within = jw.similarity_prepared_within(&pa, &pb, 0.72);
            let expected = (!below).then(|| f64::from_bits(bits));
            assert_eq!(within.map(f64::to_bits), expected.map(f64::to_bits));
        }
    }
}

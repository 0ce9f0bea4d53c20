//! Levenshtein edit distance, normalized to `[0,1]`.

use crate::bitparallel::{
    class_absent_bound, class_mask, myers_ascii_64, myers_ascii_64_within, myers_distance,
    myers_distance_within, PatternBits, PreparedText,
};
use crate::traits::StringComparator;

/// Convert a similarity cut into an edit-distance budget for a pair of
/// maximum character length `max_len`: `sim < bound ⟺ d > (1−bound)·L`.
/// The budget errs one unit high so float rounding can never turn a valid
/// distance into a spurious below-bound certificate.
fn distance_budget(bound: f64, max_len: usize) -> Option<usize> {
    if bound <= 0.0 || bound.is_nan() {
        return None; // nothing can be certified below a non-positive bound
    }
    let t = (1.0 - bound) * max_len as f64;
    if t < 0.0 {
        Some(0)
    } else {
        Some(t.floor() as usize + 1)
    }
}

/// Normalized Levenshtein similarity: `1 − d(a,b) / max(|a|, |b|)` where `d`
/// is the classical edit distance (insertions, deletions, substitutions, all
/// of cost 1).
///
/// The distance runs Myers' 1999 bit-vector algorithm: `O(⌈m/64⌉·n)` with
/// word-sized constants, a zero-allocation single-`u64` path for ASCII
/// pairs whose shorter side fits 64 bytes, and Hyyrö's blocked multi-word
/// form above that. [`Levenshtein::distance_scalar`] keeps the classical
/// two-row dynamic program as the property-tested oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Levenshtein {
    _priv: (),
}

impl Levenshtein {
    /// A new Levenshtein comparator.
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// Raw edit distance between `a` and `b`.
    pub fn distance(&self, a: &str, b: &str) -> usize {
        // Empty sides short-circuit before any table build or allocation.
        if a.is_empty() {
            return b.chars().count();
        }
        if b.is_empty() {
            return a.chars().count();
        }
        if a.is_ascii() && b.is_ascii() {
            let (pat, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            if pat.len() <= 64 {
                return myers_ascii_64(pat.as_bytes(), text.as_bytes());
            }
        }
        // Unicode or > 64-char pattern: heap-built Peq, multi-word as needed
        // (the shorter side as pattern minimizes words).
        let (ca, cb) = (a.chars().count(), b.chars().count());
        let (pat, text) = if ca <= cb { (a, b) } else { (b, a) };
        myers_distance(&PatternBits::new(pat), text)
    }

    /// The classical two-row dynamic program (`O(|a|·|b|)` time): retained
    /// as the exactness oracle for [`distance`](Self::distance) — the
    /// property tests assert both agree on arbitrary Unicode inputs.
    pub fn distance_scalar(&self, a: &str, b: &str) -> usize {
        let (short, long): (Vec<char>, Vec<char>) = {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            if av.len() <= bv.len() {
                (av, bv)
            } else {
                (bv, av)
            }
        };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut curr: Vec<usize> = vec![0; short.len() + 1];
        for (i, cl) in long.iter().enumerate() {
            curr[0] = i + 1;
            for (j, cs) in short.iter().enumerate() {
                let cost = usize::from(cl != cs);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    }

    /// Bounded edit distance: `Some(d)` iff `d ≤ bound` (with `d` exact),
    /// `None` certifying `d > bound` — usually without running the full
    /// distance. Three tiers, each cheaper than the next:
    ///
    /// 1. **length-difference prefilter** — `d ≥ ||a| − |b||` (byte lengths
    ///    suffice for ASCII pairs);
    /// 2. **ASCII-class prefilter** — `d ≥` the number of distinct
    ///    characters of either string absent from the other
    ///    ([`class_absent_bound`]);
    /// 3. **banded Myers** — [`myers_distance_within`] (or its stack-`Peq`
    ///    ASCII twin), which aborts mid-column-loop once the band
    ///    certifies the bound.
    pub fn distance_within(&self, a: &str, b: &str, bound: usize) -> Option<usize> {
        let ascii = a.is_ascii() && b.is_ascii();
        let (la, lb) = if ascii {
            (a.len(), b.len())
        } else {
            (a.chars().count(), b.chars().count())
        };
        self.distance_within_with_lens(a, b, la, lb, ascii, bound)
    }

    /// [`distance_within`](Self::distance_within) with the character
    /// lengths and ASCII class already known — callers that derived the
    /// bound from `max(la, lb)` (the similarity adapters) avoid a second
    /// scan of both strings.
    fn distance_within_with_lens(
        &self,
        a: &str,
        b: &str,
        la: usize,
        lb: usize,
        ascii: bool,
        bound: usize,
    ) -> Option<usize> {
        if la.abs_diff(lb) > bound {
            return None;
        }
        if la == 0 || lb == 0 {
            let d = la.max(lb);
            return (d <= bound).then_some(d); // gap check above ⇒ d ≤ bound
        }
        if bound >= la.max(lb) {
            // The bound cannot fail; skip the prefilter scans.
            return Some(self.distance(a, b));
        }
        if class_absent_bound(class_mask(a), class_mask(b)) > bound {
            return None;
        }
        let (pat, text) = if la <= lb { (a, b) } else { (b, a) };
        if ascii && pat.len() <= 64 {
            return myers_ascii_64_within(pat.as_bytes(), text.as_bytes(), bound);
        }
        myers_distance_within(&PatternBits::new(pat), text, bound)
    }

    /// [`distance_within`](Self::distance_within) over prepared strings:
    /// lengths and class masks come from the preparation, and a precomputed
    /// Myers table (either side's) feeds the banded kernel directly.
    pub fn distance_prepared_within(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        bound: usize,
    ) -> Option<usize> {
        let (la, lb) = (a.char_len(), b.char_len());
        if la.abs_diff(lb) > bound {
            return None;
        }
        if la == 0 || lb == 0 {
            let d = la.max(lb);
            return (d <= bound).then_some(d);
        }
        if bound < la.max(lb) && class_absent_bound(a.class(), b.class()) > bound {
            return None;
        }
        let (pat, text) = if la <= lb { (a, b) } else { (b, a) };
        match (pat.bits(), text.bits()) {
            (Some(bits), _) => myers_distance_within(bits, text.text(), bound),
            (None, Some(bits)) => myers_distance_within(bits, pat.text(), bound),
            (None, None) => self.distance_within(pat.text(), text.text(), bound),
        }
    }
}

impl StringComparator for Levenshtein {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - self.distance(a, b) as f64 / max_len as f64
    }

    fn name(&self) -> &str {
        "levenshtein"
    }

    fn wants_pattern_bits(&self) -> bool {
        true
    }

    fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        let max_len = a.char_len().max(b.char_len());
        if max_len == 0 {
            return 1.0;
        }
        let d = if a.char_len() == 0 || b.char_len() == 0 {
            max_len
        } else {
            let (pat, text) = if a.char_len() <= b.char_len() {
                (a, b)
            } else {
                (b, a)
            };
            match (pat.bits(), text.bits()) {
                (Some(bits), _) => myers_distance(bits, text.text()),
                (None, Some(bits)) => myers_distance(bits, pat.text()),
                (None, None) => self.distance(pat.text(), text.text()),
            }
        };
        1.0 - d as f64 / max_len as f64
    }

    fn similarity_within(&self, a: &str, b: &str, bound: f64) -> Option<f64> {
        let ascii = a.is_ascii() && b.is_ascii();
        let (la, lb) = if ascii {
            (a.len(), b.len())
        } else {
            (a.chars().count(), b.chars().count())
        };
        let max_len = la.max(lb);
        if max_len == 0 {
            return Some(1.0);
        }
        let Some(k) = distance_budget(bound, max_len) else {
            return Some(self.similarity(a, b));
        };
        let d = self.distance_within_with_lens(a, b, la, lb, ascii, k)?;
        Some(1.0 - d as f64 / max_len as f64)
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
        let Some(k) = distance_budget(bound, max_len) else {
            return Some(self.similarity_prepared(a, b));
        };
        let d = self.distance_prepared_within(a, b, k)?;
        Some(1.0 - d as f64 / max_len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        let l = Levenshtein::new();
        assert_eq!(l.distance("kitten", "sitting"), 3);
        assert_eq!(l.distance("flaw", "lawn"), 2);
        assert_eq!(l.distance("", "abc"), 3);
        assert_eq!(l.distance("abc", ""), 3);
        assert_eq!(l.distance("abc", "abc"), 0);
    }

    #[test]
    fn bit_parallel_agrees_with_scalar_oracle() {
        let l = Levenshtein::new();
        let long: String = ('a'..='z').cycle().take(100).collect();
        let cases = [
            ("kitten", "sitting"),
            ("", ""),
            ("日本語です", "日本語"),
            ("café au lait", "cafe au lait"),
            (long.as_str(), "kitten"),
            (long.as_str(), &long[3..]),
        ];
        for (a, b) in cases {
            assert_eq!(l.distance(a, b), l.distance_scalar(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn prepared_similarity_matches_unprepared() {
        use crate::bitparallel::PreparedText;
        let l = Levenshtein::new();
        assert!(l.wants_pattern_bits());
        for (a, b) in [("kitten", "sitting"), ("", "x"), ("café", "cafe"), ("", "")] {
            let pa = PreparedText::new(a, true);
            let pb = PreparedText::new(b, true);
            assert_eq!(
                l.similarity_prepared(&pa, &pb).to_bits(),
                l.similarity(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn normalized_similarity() {
        let l = Levenshtein::new();
        assert!((l.similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
        assert_eq!(l.similarity("", ""), 1.0);
        assert_eq!(l.similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn distance_within_bound() {
        let l = Levenshtein::new();
        assert_eq!(l.distance_within("kitten", "sitting", 3), Some(3));
        assert_eq!(l.distance_within("kitten", "sitting", 2), None);
        // Length-difference shortcut.
        assert_eq!(l.distance_within("a", "abcdefgh", 2), None);
    }

    #[test]
    fn unicode_aware() {
        let l = Levenshtein::new();
        assert_eq!(l.distance("café", "cafe"), 1);
        assert_eq!(l.distance("日本語", "日本"), 1);
    }

    #[test]
    fn symmetry_on_samples() {
        let l = Levenshtein::new();
        for (a, b) in [("abcd", "badc"), ("Tim", "Timothy"), ("", "xy")] {
            assert_eq!(l.distance(a, b), l.distance(b, a));
        }
    }
}

//! Levenshtein edit distance, normalized to `[0,1]`.

use crate::traits::StringComparator;

/// Normalized Levenshtein similarity: `1 − d(a,b) / max(|a|, |b|)` where `d`
/// is the classical edit distance (insertions, deletions, substitutions, all
/// of cost 1), over Unicode scalar values.
///
/// The distance is the classical two-row dynamic program, and the prepared
/// and bounded entry points are the trait defaults, which answer exactly:
/// the product's defaults match with Jaro–Winkler, so nothing measures a
/// faster twin of this kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Levenshtein {
    _priv: (),
}

impl Levenshtein {
    /// A new Levenshtein comparator.
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// Raw edit distance between `a` and `b`: the two-row dynamic program,
    /// `O(|a|·|b|)` time, `O(min(|a|, |b|))` space.
    pub fn distance(&self, a: &str, b: &str) -> usize {
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
    fn prepared_similarity_matches_unprepared() {
        use crate::bitparallel::PreparedText;
        let l = Levenshtein::new();
        for (a, b) in [("kitten", "sitting"), ("", "x"), ("café", "cafe"), ("", "")] {
            let pa = PreparedText::new(a);
            let pb = PreparedText::new(b);
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

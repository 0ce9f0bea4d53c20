//! Candidate pairs and the executed-matching matrix of Fig. 12.

use probdedup_model::util::FxHashSet;

/// An ordered, deduplicated set of candidate pairs over tuple indices
/// `0..n` of a combined relation — the paper's Fig. 12 device for
/// executing each matching once when the same tuple pair meets in several
/// windows, blocks or passes. Insertion order is preserved (figures and
/// tests depend on it).
///
/// Membership is one packed `u64` per pair (`lo` in the high 32 bits, `hi`
/// in the low 32), so memory scales with the pairs emitted, not with the
/// `n·(n−1)/2` cells of the universe; the universe must fit in `u32`. The
/// complete set ([`full`](Self::full)) stores no membership at all: every
/// in-range pair is a member.
#[derive(Debug, Clone)]
pub struct CandidatePairs {
    n: usize,
    pairs: Vec<(usize, usize)>,
    /// The packed members; `None` for the complete set.
    seen: Option<FxHashSet<u64>>,
}

impl PartialEq for CandidatePairs {
    /// Same universe, same pairs in the same order (membership follows
    /// from the list).
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.pairs == other.pairs
    }
}

impl CandidatePairs {
    /// An empty set over `n` tuples.
    pub fn new(n: usize) -> Self {
        assert_packable(n);
        Self {
            n,
            pairs: Vec::new(),
            seen: Some(FxHashSet::default()),
        }
    }

    /// The complete candidate set: all `n·(n−1)/2` unordered pairs in
    /// canonical `(lo, hi)` row order — the quadratic baseline the paper
    /// calls "mostly too inefficient", used by the pipeline's `Full`
    /// strategy and as the reference set for reduction metrics.
    pub fn full(n: usize) -> Self {
        assert_packable(n);
        let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j));
            }
        }
        Self {
            n,
            pairs,
            seen: None,
        }
    }

    /// The packed membership key of the unordered pair `(i, j)`, `i ≠ j`.
    fn key(&self, i: usize, j: usize) -> u64 {
        assert!(
            i < self.n && j < self.n,
            "pair ({i},{j}) out of range {}",
            self.n
        );
        (i.min(j) as u64) << 32 | i.max(j) as u64
    }

    /// Insert the unordered pair `(i, j)`; returns `true` if it was new.
    /// Self-pairs are ignored (returns `false`).
    pub fn insert(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let key = self.key(i, j);
        // The complete set already holds every in-range pair.
        let new = self.seen.as_mut().is_some_and(|seen| seen.insert(key));
        if new {
            self.pairs.push((i.min(j), i.max(j)));
        }
        new
    }

    /// The pairs in first-insertion order, canonicalized as `(lo, hi)`.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The pairs in first-insertion order, without the membership index.
    pub fn into_pairs(self) -> Vec<(usize, usize)> {
        self.pairs
    }

    /// Whether `(i, j)` is present.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let key = self.key(i, j);
        self.seen.as_ref().is_none_or(|seen| seen.contains(&key))
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs were generated.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of tuples the set ranges over.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Merge another pair set over the same universe into this one
    /// (used by multi-pass methods).
    pub fn absorb(&mut self, other: &CandidatePairs) {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        for &(i, j) in other.pairs() {
            self.insert(i, j);
        }
    }

    /// Reduction ratio against the full comparison space:
    /// `1 − |candidates| / (n·(n−1)/2)`.
    pub fn reduction_ratio(&self) -> f64 {
        let n = self.universe();
        let total = n * n.saturating_sub(1) / 2;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.len() as f64 / total as f64
    }
}

/// Membership keys pack row indices into `u32`s.
fn assert_packable(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "a candidate set packs row indices into u32s; {n} rows do not fit"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_matrix_suppresses_repeats() {
        // The Fig. 11/12 walkthrough: (t32,t43) executed once although the
        // window produces it twice.
        let mut m = CandidatePairs::new(5);
        assert!(m.insert(1, 4)); // first time: execute
        assert!(!m.insert(4, 1)); // repeat in either order: suppressed
        assert!(m.contains(1, 4));
        assert!(!m.contains(0, 1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn matrix_indexing_is_bijective() {
        let n = 13;
        let mut m = CandidatePairs::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(m.insert(j, i), "({i},{j}) collided");
            }
        }
        assert_eq!(m, CandidatePairs::full(n));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = CandidatePairs::new(3);
        m.insert(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics_on_the_complete_set() {
        let mut m = CandidatePairs::full(3);
        m.insert(3, 1);
    }

    #[test]
    fn self_pairs_are_ignored() {
        for mut m in [CandidatePairs::new(3), CandidatePairs::full(3)] {
            let before = m.len();
            assert!(!m.insert(1, 1));
            assert!(!m.contains(2, 2));
            assert_eq!(m.len(), before);
        }
    }

    #[test]
    fn full_holds_every_pair_and_absorbs_nothing() {
        let n = 6;
        let mut full = CandidatePairs::full(n);
        assert_eq!(full.len(), n * (n - 1) / 2);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(full.contains(i, j), i != j, "({i},{j})");
                assert!(!full.insert(i, j), "({i},{j}) reported new");
            }
        }
        let mut some = CandidatePairs::new(n);
        some.insert(5, 0);
        full.absorb(&some);
        assert_eq!(full, CandidatePairs::full(n));
        assert_eq!(full.reduction_ratio(), 0.0);
    }

    #[test]
    fn into_pairs_keeps_first_insertion_order() {
        let mut c = CandidatePairs::new(6);
        for (i, j) in [(4, 1), (0, 5), (1, 4), (3, 2), (5, 0), (2, 0)] {
            c.insert(i, j);
        }
        assert_eq!(c.into_pairs(), vec![(1, 4), (0, 5), (2, 3), (0, 2)]);
    }

    #[test]
    fn candidate_pairs_dedup_and_order() {
        let mut c = CandidatePairs::new(4);
        assert!(c.insert(2, 0));
        assert!(c.insert(1, 3));
        assert!(!c.insert(0, 2)); // duplicate, either orientation
        assert!(!c.insert(1, 1)); // self-pair ignored
        assert_eq!(c.pairs(), &[(0, 2), (1, 3)]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(3, 1));
        assert!(!c.contains(0, 1));
        assert!(!c.contains(2, 2));
    }

    #[test]
    fn absorb_unions_pair_sets() {
        let mut a = CandidatePairs::new(4);
        a.insert(0, 1);
        let mut b = CandidatePairs::new(4);
        b.insert(0, 1);
        b.insert(2, 3);
        a.absorb(&b);
        assert_eq!(a.pairs(), &[(0, 1), (2, 3)]);
    }

    #[test]
    fn reduction_ratio() {
        let mut c = CandidatePairs::new(5); // 10 total pairs
        c.insert(0, 1);
        c.insert(2, 3);
        assert!((c.reduction_ratio() - 0.8).abs() < 1e-12);
        let empty = CandidatePairs::new(0);
        assert_eq!(empty.reduction_ratio(), 0.0);
    }

    #[test]
    fn empty_matrix() {
        for m in [CandidatePairs::new(0), CandidatePairs::full(0)] {
            assert!(m.is_empty());
            assert_eq!(m.universe(), 0);
        }
    }

    #[test]
    fn sparse_set_agrees_with_matrix() {
        let n = 17;
        let mut dense = vec![false; n * n];
        let mut sparse = CandidatePairs::new(n);
        // A deterministic scatter of insertions in mixed orientations.
        let mut x = 7usize;
        for _ in 0..200 {
            x = (x * 31 + 11) % (n * n);
            let (i, j) = (x / n, x % n);
            if i == j {
                continue;
            }
            let cell = &mut dense[i.min(j) * n + i.max(j)];
            assert_eq!(sparse.insert(i, j), !*cell, "({i},{j})");
            *cell = true;
            assert!(sparse.contains(j, i));
        }
        assert_eq!(sparse.len(), dense.iter().filter(|&&c| c).count());
        assert!(!sparse.is_empty());
    }
}

//! Candidate pairs and the executed-matching matrix of Fig. 12.

use probdedup_model::util::FxHashSet;

/// A triangular bit matrix over `n` tuples recording which matchings have
/// already been executed — the paper's Fig. 12 device for avoiding repeated
/// comparisons when the same tuple pair meets in several windows, blocks or
/// passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMatrix {
    n: usize,
    bits: Vec<u64>,
}

impl PairMatrix {
    /// An empty matrix over `n` tuples.
    pub fn new(n: usize) -> Self {
        let cells = n.saturating_mul(n.saturating_sub(1)) / 2;
        Self {
            n,
            bits: vec![0; cells.div_ceil(64)],
        }
    }

    /// Number of tuples the matrix ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Linear index of the unordered pair `(i, j)`, `i ≠ j`.
    fn index(&self, i: usize, j: usize) -> usize {
        assert!(i != j, "self-pairs are meaningless in duplicate detection");
        assert!(
            i < self.n && j < self.n,
            "pair ({i},{j}) out of range {0}",
            self.n
        );
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        // Row-wise triangular layout: row `lo` starts after all previous rows.
        lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Record the pair; returns `true` if it was **new** (not yet executed).
    pub fn insert(&mut self, i: usize, j: usize) -> bool {
        let idx = self.index(i, j);
        let (word, bit) = (idx / 64, idx % 64);
        let mask = 1u64 << bit;
        let new = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        new
    }

    /// Whether the pair has been recorded.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let idx = self.index(i, j);
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of recorded pairs.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// An ordered, deduplicated set of candidate pairs over tuple indices
/// `0..n` of a combined relation. Insertion order is preserved (figures and
/// tests depend on it); duplicates are suppressed with a [`PairMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePairs {
    pairs: Vec<(usize, usize)>,
    seen: PairMatrix,
}

impl CandidatePairs {
    /// An empty set over `n` tuples.
    pub fn new(n: usize) -> Self {
        Self {
            pairs: Vec::new(),
            seen: PairMatrix::new(n),
        }
    }

    /// The complete candidate set: all `n·(n−1)/2` unordered pairs in
    /// canonical `(lo, hi)` row order — the quadratic baseline the paper
    /// calls "mostly too inefficient", used by the pipeline's `Full`
    /// strategy and as the reference set for reduction metrics.
    pub fn full(n: usize) -> Self {
        let mut pairs = Self::new(n);
        pairs
            .pairs
            .reserve(n.saturating_mul(n.saturating_sub(1)) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.insert(i, j);
            }
        }
        pairs
    }

    /// Insert the unordered pair `(i, j)`; returns `true` if it was new.
    /// Self-pairs are ignored (returns `false`).
    pub fn insert(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if self.seen.insert(lo, hi) {
            self.pairs.push((lo, hi));
            true
        } else {
            false
        }
    }

    /// The pairs in first-insertion order, canonicalized as `(lo, hi)`.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Whether `(i, j)` is present.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i != j && self.seen.contains(i, j)
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
        self.seen.len()
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

/// A sparse executed-matching set: the sharded driver's replacement for
/// [`PairMatrix`].
///
/// The triangular bit matrix is the right tool while `n·(n−1)/2` bits fit
/// in RAM, but at 10⁵–10⁶ tuples it costs gigabytes even when reduction
/// leaves only millions of candidates. `SparsePairSet` stores each seen
/// pair as one packed `u64` (`lo` in the high 32 bits, `hi` in the low
/// 32), so memory scales with the number of **distinct pairs actually
/// emitted**, not with the universe. Semantics match [`PairMatrix`]:
/// unordered pairs, self-pairs rejected, `insert` reports newness.
///
/// The `u32` packing caps the universe at `u32::MAX` tuples — comfortably
/// above the 10⁶-class corpora the sharded pipeline targets; `insert`
/// asserts the bound.
#[derive(Debug, Default, Clone)]
pub struct SparsePairSet {
    seen: FxHashSet<u64>,
}

impl SparsePairSet {
    /// An empty set. No universe size is needed up front — that is the
    /// point.
    pub fn new() -> Self {
        Self::default()
    }

    fn pack(i: usize, j: usize) -> u64 {
        assert!(i != j, "self-pairs are meaningless in duplicate detection");
        assert!(
            i <= u32::MAX as usize && j <= u32::MAX as usize,
            "SparsePairSet packs indices into u32s; ({i},{j}) out of range"
        );
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        (lo as u64) << 32 | hi as u64
    }

    /// Record the unordered pair; returns `true` if it was new.
    pub fn insert(&mut self, i: usize, j: usize) -> bool {
        self.seen.insert(Self::pack(i, j))
    }

    /// Whether the pair has been recorded.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.seen.contains(&Self::pack(i, j))
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no pairs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_matrix_suppresses_repeats() {
        // The Fig. 11/12 walkthrough: (t32,t43) executed once although the
        // window produces it twice.
        let mut m = PairMatrix::new(5);
        assert!(m.insert(1, 4)); // first time: execute
        assert!(!m.insert(4, 1)); // repeat in either order: suppressed
        assert!(m.contains(1, 4));
        assert!(!m.contains(0, 1));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn matrix_indexing_is_bijective() {
        let n = 13;
        let mut m = PairMatrix::new(n);
        let mut inserted = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(m.insert(i, j), "({i},{j}) collided");
                inserted += 1;
                assert_eq!(m.count(), inserted);
            }
        }
        assert_eq!(inserted, n * (n - 1) / 2);
    }

    #[test]
    #[should_panic(expected = "self-pairs")]
    fn self_pair_panics() {
        let mut m = PairMatrix::new(3);
        m.insert(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = PairMatrix::new(3);
        m.insert(0, 3);
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
        let m = PairMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn sparse_set_agrees_with_matrix() {
        let n = 17;
        let mut matrix = PairMatrix::new(n);
        let mut sparse = SparsePairSet::new();
        // A deterministic scatter of insertions in mixed orientations.
        let mut x = 7usize;
        for _ in 0..200 {
            x = (x * 31 + 11) % (n * n);
            let (i, j) = (x / n, x % n);
            if i == j {
                continue;
            }
            assert_eq!(sparse.insert(i, j), matrix.insert(i, j), "({i},{j})");
            assert!(sparse.contains(j, i));
        }
        assert_eq!(sparse.len(), matrix.count());
        assert!(!sparse.is_empty());
    }

    #[test]
    #[should_panic(expected = "self-pairs")]
    fn sparse_self_pair_panics() {
        let mut s = SparsePairSet::new();
        s.insert(4, 4);
    }
}

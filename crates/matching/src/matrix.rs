//! Comparison matrices for x-tuple pairs (Section IV-B, Fig. 6 input).
//!
//! When comparing two x-tuples `t₁ = {t₁¹…t₁ᵏ}` and `t₂ = {t₂¹…t₂ˡ}`, all
//! alternative tuples are compared pairwise, producing `k × l` comparison
//! vectors instead of one: the comparison matrix `c⃗(t₁,t₂) = [c⃗¹¹ … c⃗ᵏˡ]`.

use probdedup_model::xtuple::XTuple;

use crate::pvalue_sim::pvalue_similarity;
use crate::vector::{AttributeComparators, ComparisonVector};

/// A `k × l` matrix of comparison vectors for an x-tuple pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonMatrix {
    k: usize,
    l: usize,
    /// Row-major: entry `(i, j)` at index `i * l + j`.
    vectors: Vec<ComparisonVector>,
}

impl ComparisonMatrix {
    /// Assemble a matrix from row-major vectors (used by the interned
    /// comparison path; `vectors.len()` must equal `k · l`).
    pub(crate) fn from_vectors(k: usize, l: usize, vectors: Vec<ComparisonVector>) -> Self {
        debug_assert_eq!(vectors.len(), k * l);
        Self { k, l, vectors }
    }

    /// Number of alternatives of the first x-tuple.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of alternatives of the second x-tuple.
    pub fn l(&self) -> usize {
        self.l
    }

    /// The comparison vector of alternative pair `(i, j)`.
    pub fn vector(&self, i: usize, j: usize) -> &ComparisonVector {
        assert!(
            i < self.k && j < self.l,
            "({i},{j}) out of {0}×{1}",
            self.k,
            self.l
        );
        &self.vectors[i * self.l + j]
    }

    /// Iterate `(i, j, c⃗ᵢⱼ)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &ComparisonVector)> {
        self.vectors
            .iter()
            .enumerate()
            .map(move |(idx, v)| (idx / self.l, idx % self.l, v))
    }

    /// Total number of alternative pairs (`k · l`).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the matrix is empty (never true for valid x-tuples).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// Compare all alternative pairs of two x-tuples: attribute values of the
/// alternatives are compared with Eq. 5 (they may themselves be uncertain,
/// e.g. the paper's `mu*` value), yielding the comparison matrix.
pub fn compare_xtuples(
    t1: &XTuple,
    t2: &XTuple,
    comparators: &AttributeComparators,
) -> ComparisonMatrix {
    let k = t1.len();
    let l = t2.len();
    let mut vectors = Vec::with_capacity(k * l);
    for a1 in t1.alternatives() {
        for a2 in t2.alternatives() {
            let v: ComparisonVector = (0..comparators.arity())
                .map(|i| pvalue_similarity(a1.value(i), a2.value(i), comparators.get(i)))
                .collect();
            vectors.push(v);
        }
    }
    ComparisonMatrix { k, l, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_textsim::{NormalizedHamming, StringComparator};

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn comparators() -> AttributeComparators {
        AttributeComparators::uniform(&schema(), NormalizedHamming::new())
    }

    /// Fig. 7's pair (t32, t42): the 3×1 comparison matrix underlying
    /// sim(t32, t42) = 7/15.
    #[test]
    fn fig7_comparison_matrix() {
        let s = schema();
        let t32 = XTuple::builder(&s)
            .alt(0.3, ["Tim", "mechanic"])
            .alt(0.2, ["Jim", "mechanic"])
            .alt(0.4, ["Jim", "baker"])
            .build()
            .unwrap();
        let t42 = XTuple::builder(&s)
            .alt(0.8, ["Tom", "mechanic"])
            .build()
            .unwrap();
        let m = compare_xtuples(&t32, &t42, &comparators());
        assert_eq!((m.k(), m.l()), (3, 1));
        assert_eq!(m.len(), 3);
        // (Tim, mechanic) vs (Tom, mechanic): c = [2/3, 1].
        assert!((m.vector(0, 0)[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.vector(0, 0)[1] - 1.0).abs() < 1e-12);
        // (Jim, mechanic) vs (Tom, mechanic): c = [1/3, 1].
        assert!((m.vector(1, 0)[0] - 1.0 / 3.0).abs() < 1e-12);
        // (Jim, baker) vs (Tom, mechanic): c = [1/3, 0].
        assert!((m.vector(2, 0)[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.vector(2, 0)[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn uncertain_values_inside_alternatives_use_eq5() {
        let s = schema();
        let mu = PValue::uniform(["mud logger", "musician"]).unwrap();
        let t = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        let u = XTuple::builder(&s)
            .alt(1.0, ["Johan", "musician"])
            .build()
            .unwrap();
        let m = compare_xtuples(&t, &u, &comparators());
        // job: .5·sim(mud logger, musician) + .5·1.
        let expected = 0.5 * NormalizedHamming::new().similarity("mud logger", "musician") + 0.5;
        assert!((m.vector(0, 0)[1] - expected).abs() < 1e-12);
    }

    #[test]
    fn iter_is_row_major() {
        let s = schema();
        let t = XTuple::builder(&s)
            .alt(0.5, ["a", "x"])
            .alt(0.5, ["b", "y"])
            .build()
            .unwrap();
        let u = XTuple::builder(&s)
            .alt(0.4, ["a", "x"])
            .alt(0.6, ["b", "y"])
            .build()
            .unwrap();
        let m = compare_xtuples(&t, &u, &comparators());
        let coords: Vec<(usize, usize)> = m.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(!m.is_empty());
        // Diagonal pairs are identical: c = [1, 1].
        assert_eq!(m.vector(0, 0), &vec![1.0, 1.0]);
        assert_eq!(m.vector(1, 1), &vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_access_panics() {
        let s = schema();
        let t = XTuple::builder(&s).alt(1.0, ["a", "b"]).build().unwrap();
        let m = compare_xtuples(&t, &t, &comparators());
        let _ = m.vector(1, 0);
    }
}

//! Comparison matrices for x-tuple pairs (Section IV-B, Fig. 6 input).
//!
//! When comparing two x-tuples `t₁ = {t₁¹…t₁ᵏ}` and `t₂ = {t₂¹…t₂ˡ}`, all
//! alternative tuples are compared pairwise, producing `k × l` comparison
//! vectors instead of one: the comparison matrix `c⃗(t₁,t₂) = [c⃗¹¹ … c⃗ᵏˡ]`.
//! The matrix is one row-major allocation of `k · l · arity` similarities.

use probdedup_model::xtuple::XTuple;

use crate::pvalue_sim::pvalue_similarity;
use crate::vector::AttributeComparators;

/// A `k × l` matrix of comparison vectors for an x-tuple pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonMatrix {
    k: usize,
    l: usize,
    arity: usize,
    /// Row-major: vector `(i, j)` at `(i * l + j) * arity ..` for `arity`
    /// values.
    values: Vec<f64>,
}

impl ComparisonMatrix {
    /// A `k × l` matrix of `arity`-vectors filled in row-major order:
    /// `sim(i, j, attr)` is attribute `attr` of alternative pair `(i, j)`.
    pub(crate) fn build(
        k: usize,
        l: usize,
        arity: usize,
        mut sim: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut values = Vec::with_capacity(k * l * arity);
        for i in 0..k {
            for j in 0..l {
                for attr in 0..arity {
                    values.push(sim(i, j, attr));
                }
            }
        }
        Self {
            k,
            l,
            arity,
            values,
        }
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
    pub fn vector(&self, i: usize, j: usize) -> &[f64] {
        assert!(
            i < self.k && j < self.l,
            "({i},{j}) out of {0}×{1}",
            self.k,
            self.l
        );
        self.at(i * self.l + j)
    }

    /// Iterate `(i, j, c⃗ᵢⱼ)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &[f64])> {
        (0..self.len()).map(move |idx| (idx / self.l, idx % self.l, self.at(idx)))
    }

    /// The vector at row-major position `idx`.
    fn at(&self, idx: usize) -> &[f64] {
        &self.values[idx * self.arity..(idx + 1) * self.arity]
    }

    /// Total number of alternative pairs (`k · l`).
    pub fn len(&self) -> usize {
        self.k * self.l
    }

    /// Whether the matrix is empty (never true for valid x-tuples).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    let (alts1, alts2) = (t1.alternatives(), t2.alternatives());
    ComparisonMatrix::build(alts1.len(), alts2.len(), comparators.arity(), |i, j, a| {
        pvalue_similarity(alts1[i].value(a), alts2[j].value(a), comparators.get(a))
    })
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
        assert_eq!(m.vector(0, 0), [1.0, 1.0]);
        assert_eq!(m.vector(1, 1), [1.0, 1.0]);
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

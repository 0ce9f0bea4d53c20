//! Comparison vectors: per-attribute expected similarities of a tuple pair
//! (the `c⃗ = [c₁, …, cₙ] ∈ [0,1]ⁿ` of Section III-C).

use std::sync::Arc;

use probdedup_model::schema::Schema;
use probdedup_model::tuple::ProbTuple;
use probdedup_textsim::StringComparator;

use crate::pvalue_sim::pvalue_similarity;
use crate::value_cmp::ValueComparator;

/// The comparison vector `c⃗` of one tuple pair: `c[i]` is the similarity of
/// the values of the `i`-th attribute.
pub type ComparisonVector = Vec<f64>;

/// Per-attribute value comparators for a schema.
#[derive(Debug, Clone)]
pub struct AttributeComparators {
    per_attr: Arc<Vec<ValueComparator>>,
}

impl AttributeComparators {
    /// The same string kernel for every attribute of `schema`.
    pub fn uniform(schema: &Schema, kernel: impl StringComparator + Clone + 'static) -> Self {
        Self {
            per_attr: Arc::new(
                (0..schema.arity())
                    .map(|_| ValueComparator::text(kernel.clone()))
                    .collect(),
            ),
        }
    }

    /// Explicit per-attribute comparators (must cover every attribute).
    pub fn per_attribute(comparators: Vec<ValueComparator>) -> Self {
        Self {
            per_attr: Arc::new(comparators),
        }
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }

    /// The comparator of attribute `i`.
    pub fn get(&self, i: usize) -> &ValueComparator {
        &self.per_attr[i]
    }
}

/// Compare two probabilistic tuples attribute by attribute (Eq. 5 per
/// attribute), producing the comparison vector `c⃗ ∈ [0,1]ⁿ`.
///
/// Tuple membership probabilities are deliberately **ignored** — the paper's
/// Section IV argues membership stems from application context and must not
/// influence duplicate detection.
///
/// # Panics
///
/// Panics if the tuples' arities differ from the comparator set's arity
/// (schemas must have been aligned by schema matching upstream).
pub fn compare_tuples(
    t1: &ProbTuple,
    t2: &ProbTuple,
    comparators: &AttributeComparators,
) -> ComparisonVector {
    assert_eq!(t1.arity(), comparators.arity(), "t1 arity mismatch");
    assert_eq!(t2.arity(), comparators.arity(), "t2 arity mismatch");
    (0..comparators.arity())
        .map(|i| pvalue_similarity(t1.value(i), t2.value(i), comparators.get(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_textsim::NormalizedHamming;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn comparators() -> AttributeComparators {
        AttributeComparators::uniform(&schema(), NormalizedHamming::new())
    }

    /// Fig. 4's t11 and t22 and the Section IV-A walkthrough.
    #[test]
    fn paper_comparison_vector_t11_t22() {
        let s = schema();
        let t11 = ProbTuple::builder(&s)
            .certain("name", "Tim")
            .dist("job", [("machinist", 0.7), ("mechanic", 0.2)])
            .probability(1.0)
            .build()
            .unwrap();
        let t22 = ProbTuple::builder(&s)
            .dist("name", [("Tim", 0.7), ("Kim", 0.3)])
            .certain("job", "mechanic")
            .probability(0.8)
            .build()
            .unwrap();
        let c = compare_tuples(&t11, &t22, &comparators());
        assert_eq!(c.len(), 2);
        assert!((c[0] - 0.9).abs() < 1e-12);
        assert!((c[1] - 53.0 / 90.0).abs() < 1e-12); // ≈ 0.59 in the paper
    }

    /// Membership probabilities must not affect the comparison vector.
    #[test]
    fn membership_invariance() {
        let s = schema();
        let a = ProbTuple::builder(&s)
            .certain("name", "Tim")
            .certain("job", "baker")
            .probability(1.0)
            .build()
            .unwrap();
        let b = ProbTuple::builder(&s)
            .certain("name", "Tim")
            .certain("job", "baker")
            .probability(0.05)
            .build()
            .unwrap();
        let target = ProbTuple::builder(&s)
            .certain("name", "Tom")
            .certain("job", "baker")
            .build()
            .unwrap();
        let cmp = comparators();
        assert_eq!(
            compare_tuples(&a, &target, &cmp),
            compare_tuples(&b, &target, &cmp)
        );
    }

    #[test]
    fn vector_stays_in_unit_hypercube() {
        let s = schema();
        let a = ProbTuple::builder(&s)
            .dist("name", [("John", 0.5), ("Johan", 0.5)])
            .dist("job", [("baker", 0.7), ("confectioner", 0.3)])
            .build()
            .unwrap();
        let b = ProbTuple::builder(&s)
            .dist("name", [("John", 0.7), ("Jon", 0.3)])
            .certain("job", "confectionist")
            .build()
            .unwrap();
        for c in compare_tuples(&a, &b, &comparators()) {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let one = Schema::new(["only"]);
        let t = ProbTuple::builder(&one)
            .certain("only", "x")
            .build()
            .unwrap();
        let _ = compare_tuples(&t, &t, &comparators());
    }

    #[test]
    fn per_attribute_comparators() {
        use probdedup_textsim::Exact;
        let cmp = AttributeComparators::per_attribute(vec![
            ValueComparator::text(Exact),
            ValueComparator::text(NormalizedHamming::new()),
        ]);
        let s = schema();
        let a = ProbTuple::builder(&s)
            .certain("name", "Tim")
            .certain("job", "machinist")
            .build()
            .unwrap();
        let b = ProbTuple::builder(&s)
            .certain("name", "Tom")
            .certain("job", "mechanic")
            .build()
            .unwrap();
        let c = compare_tuples(&a, &b, &cmp);
        assert_eq!(c[0], 0.0); // exact: Tim ≠ Tom
        assert!((c[1] - 5.0 / 9.0).abs() < 1e-12); // hamming
    }
}

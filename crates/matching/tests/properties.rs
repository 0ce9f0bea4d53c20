//! Property tests for attribute value matching: Eq. 5 laws and the Eq. 4
//! reduction.

use proptest::prelude::*;

use probdedup_matching::{
    compare_tuples, pvalue_similarity, AttributeComparators, ValueComparator,
};
use probdedup_model::pvalue::PValue;
use probdedup_model::schema::Schema;
use probdedup_model::tuple::ProbTuple;
use probdedup_model::value::Value;
use probdedup_textsim::{Exact, NormalizedHamming};

fn arb_pvalue() -> impl Strategy<Value = PValue> {
    proptest::collection::vec(("[a-d]{1,4}", 1u32..100), 0..4).prop_map(|entries| {
        let total: u32 = entries.iter().map(|(_, w)| *w).sum();
        let denom = f64::from(total.max(1)) * 1.25;
        PValue::categorical(
            entries
                .into_iter()
                .map(|(v, w)| (Value::from(v), f64::from(w) / denom)),
        )
        .expect("mass ≤ 1")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 5 output is in [0, 1] and symmetric for any kernel satisfying the
    /// comparator laws.
    #[test]
    fn similarity_laws(a in arb_pvalue(), b in arb_pvalue()) {
        let cmp = ValueComparator::text(NormalizedHamming::new());
        let ab = pvalue_similarity(&a, &b, &cmp);
        let ba = pvalue_similarity(&b, &a, &cmp);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    /// Reflexivity on certain values: sim(v, v) = 1. (Uncertain values
    /// compared with themselves score < 1 — they may disagree across
    /// outcomes — so reflexivity holds only for certain ones.)
    #[test]
    fn certain_reflexivity(s in "[a-z]{1,8}") {
        let v = PValue::certain(s);
        let cmp = ValueComparator::text(NormalizedHamming::new());
        prop_assert!((pvalue_similarity(&v, &v, &cmp) - 1.0).abs() < 1e-12);
    }

    /// With the exact kernel, Eq. 5 collapses to Eq. 4 (equality
    /// probability) — the reduction stated in Section IV-A.
    #[test]
    fn eq5_reduces_to_eq4(a in arb_pvalue(), b in arb_pvalue()) {
        let exact = ValueComparator::text(Exact);
        let via_eq5 = pvalue_similarity(&a, &b, &exact);
        let via_eq4 = a.equality_prob(&b);
        prop_assert!((via_eq5 - via_eq4).abs() < 1e-12);
    }

    /// Eq. 5 under any kernel dominates Eq. 4 (a kernel only adds partial
    /// credit for unequal pairs).
    #[test]
    fn kernel_dominates_equality(a in arb_pvalue(), b in arb_pvalue()) {
        let cmp = ValueComparator::text(NormalizedHamming::new());
        prop_assert!(pvalue_similarity(&a, &b, &cmp) >= a.equality_prob(&b) - 1e-12);
    }

    /// Mixing mass toward ⊥ on one side only can never increase similarity
    /// against a certain existing value.
    #[test]
    fn null_mass_monotonicity(s in "[a-z]{1,6}", keep in 1u32..=100) {
        let certain = PValue::certain(s.clone());
        let partial = PValue::categorical([(Value::from(s.clone()), f64::from(keep) / 100.0)]).unwrap();
        let target = PValue::certain(s);
        let cmp = ValueComparator::text(NormalizedHamming::new());
        prop_assert!(
            pvalue_similarity(&partial, &target, &cmp)
                <= pvalue_similarity(&certain, &target, &cmp) + 1e-12
        );
    }

    /// Comparison vectors ignore membership probability entirely.
    #[test]
    fn membership_invariance(a in arb_pvalue(), b in arb_pvalue(), p in 1u32..=100, q in 1u32..=100) {
        let s = Schema::new(["x"]);
        let mk = |v: &PValue, prob: f64| {
            ProbTuple::builder(&s).pvalue("x", v.clone()).probability(prob).build().unwrap()
        };
        let cmp = AttributeComparators::uniform(&s, NormalizedHamming::new());
        let c1 = compare_tuples(&mk(&a, f64::from(p) / 100.0), &mk(&b, 1.0), &cmp);
        let c2 = compare_tuples(&mk(&a, f64::from(q) / 100.0), &mk(&b, 0.5), &cmp);
        prop_assert_eq!(c1, c2);
    }

    /// The interned hot path (symbol pool + sharded similarity cache +
    /// pruning) agrees with the uncached reference to 1e-12 — including on
    /// repeat comparisons, where every kernel evaluation is a cache hit.
    #[test]
    fn interned_cached_agrees_with_uncached(
        rows in proptest::collection::vec((arb_pvalue(), arb_pvalue()), 1..5)
    ) {
        use probdedup_matching::interned::{
            compare_xtuples_interned, intern_tuples, InternedComparators,
        };
        use probdedup_model::xtuple::XTuple;

        let s = Schema::new(["x", "y"]);
        let cmp = AttributeComparators::uniform(&s, NormalizedHamming::new());
        let tuples: Vec<XTuple> = rows
            .iter()
            .map(|(x, y)| {
                XTuple::builder(&s)
                    .alt_pvalues(1.0, [x.clone(), y.clone()])
                    .build()
                    .unwrap()
            })
            .collect();
        let (pool, interned) = intern_tuples(&tuples);
        let icmps = InternedComparators::new(&pool, &cmp);
        for round in 0..2 {
            for i in 0..tuples.len() {
                for j in 0..tuples.len() {
                    let reference =
                        probdedup_matching::compare_xtuples(&tuples[i], &tuples[j], &cmp);
                    let fast = compare_xtuples_interned(&interned[i], &interned[j], &icmps);
                    for (ii, jj, v) in reference.iter() {
                        let w = fast.vector(ii, jj);
                        for (x, y) in v.iter().zip(w) {
                            prop_assert!(
                                (x - y).abs() < 1e-12,
                                "round {round}, pair ({i},{j}): {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }
}

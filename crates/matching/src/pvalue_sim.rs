//! The expected-similarity formulas of Section IV-A: Eq. 4 (error-free) and
//! Eq. 5 (erroneous data).

use probdedup_model::pvalue::PValue;

use crate::value_cmp::ValueComparator;

/// Eq. 5: the expected similarity of two uncertain attribute values under a
/// similarity kernel, assuming the values are independent random variables
/// (the dependency-free model):
///
/// ```text
/// sim(a₁, a₂) = Σ_{d₁∈D̂} Σ_{d₂∈D̂} P(a₁=d₁) · P(a₂=d₂) · sim(d₁, d₂)
/// ```
///
/// `D̂` includes ⊥, whose mass is implicit in [`PValue`]; the ⊥ conventions
/// are those of [`ValueComparator::similarity`]. Runs in
/// `O(|supp(a₁)| · |supp(a₂)|)` kernel evaluations (the ⊥×⊥ term is free).
///
/// ```
/// use probdedup_matching::{pvalue_similarity, ValueComparator};
/// use probdedup_model::pvalue::PValue;
/// use probdedup_textsim::NormalizedHamming;
///
/// // Paper, Section IV-A: sim(t11.name, t22.name) = 0.9.
/// let a = PValue::certain("Tim");
/// let b = PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap();
/// let cmp = ValueComparator::text(NormalizedHamming::new());
/// assert!((pvalue_similarity(&a, &b, &cmp) - 0.9).abs() < 1e-12);
/// ```
pub fn pvalue_similarity(a: &PValue, b: &PValue, cmp: &ValueComparator) -> f64 {
    let mut total = 0.0;
    // Existing × existing terms.
    for (va, pa) in a.alternatives() {
        for (vb, pb) in b.alternatives() {
            let s = cmp.similarity(va, vb);
            if s > 0.0 {
                total += pa * pb * s;
            }
        }
    }
    // ⊥ × ⊥ term: sim(⊥,⊥) = 1. The ⊥ × existing terms contribute 0.
    total += a.null_prob() * b.null_prob();
    // Clamp tiny floating-point overshoot.
    total.clamp(0.0, 1.0)
}

/// The Eq. 5 pruning loop of the interned hot path
/// ([`interned_pvalue_similarity`](crate::interned::interned_pvalue_similarity)).
///
/// `a_alts`/`b_alts` must be in **descending probability order** and
/// `a_mass`/`b_mass` must be the **uncapped** sums of their probabilities
/// (a distribution may legitimately sum to `1 + ε` within the model's
/// probability tolerance; capping the pruning budget at 1 would let the
/// loop break while up to `ε` of real contribution remains). Because every
/// kernel value is ≤ 1, the contribution of all unvisited terms is bounded
/// by the remaining mass product — iteration breaks as soon as that bound
/// drops below [`PRUNE_EPS`](crate::interned::PRUNE_EPS), or the
/// accumulated sum saturates at 1 (where the final clamp makes further
/// non-negative terms exactly irrelevant).
///
/// The result differs from the exhaustive sum by less than
/// `(|supp(a₁)| + 1) · PRUNE_EPS`; property tests pin agreement at 1e-12.
pub(crate) fn pruned_expected_similarity<K>(
    a_alts: &[(K, f64)],
    a_mass: f64,
    a_null: f64,
    b_alts: &[(K, f64)],
    b_mass: f64,
    b_null: f64,
    mut kernel: impl FnMut(&K, &K) -> f64,
) -> f64 {
    use crate::interned::PRUNE_EPS;
    let mut total = 0.0;
    let mut rem_a = a_mass;
    for (ka, pa) in a_alts {
        if rem_a * b_mass <= PRUNE_EPS || total >= 1.0 {
            break;
        }
        let mut rem_b = b_mass;
        for (kb, pb) in b_alts {
            if pa * rem_b <= PRUNE_EPS {
                break;
            }
            let s = kernel(ka, kb);
            if s > 0.0 {
                total += pa * pb * s;
            }
            rem_b -= pb;
        }
        rem_a -= pa;
    }
    // ⊥ × ⊥ term: sim(⊥,⊥) = 1. The ⊥ × existing terms contribute 0.
    total += a_null * b_null;
    total.clamp(0.0, 1.0)
}

/// Uncapped probability mass of a support (the pruning budget — see
/// [`pruned_expected_similarity`] for why it must not be clamped at 1).
pub(crate) fn support_mass(alts: &[(impl Sized, f64)]) -> f64 {
    alts.iter().map(|(_, p)| p).sum()
}

/// Eq. 4 (error-free data): the probability that both values are equal,
/// `P(a₁ = a₂)`. Equivalent to [`pvalue_similarity`] with the exact-equality
/// kernel — a property test asserts this reduction.
pub fn pvalue_equality(a: &PValue, b: &PValue) -> f64 {
    a.equality_prob(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::value::Value;
    use probdedup_textsim::{Exact, NormalizedHamming};

    fn hamming() -> ValueComparator {
        ValueComparator::text(NormalizedHamming::new())
    }

    /// [`pruned_expected_similarity`] over plain values: the descending-
    /// probability views the loop requires (ties by value order), built
    /// the way the interned path builds them over symbols.
    fn pruned(a: &PValue, b: &PValue, cmp: &ValueComparator) -> f64 {
        fn desc(pv: &PValue) -> Vec<(&Value, f64)> {
            let mut alts: Vec<(&Value, f64)> =
                pv.alternatives().iter().map(|(v, p)| (v, *p)).collect();
            alts.sort_by(|(va, pa), (vb, pb)| pb.total_cmp(pa).then(va.cmp(vb)));
            alts
        }
        let (a_desc, b_desc) = (desc(a), desc(b));
        pruned_expected_similarity(
            &a_desc,
            support_mass(&a_desc),
            a.null_prob(),
            &b_desc,
            support_mass(&b_desc),
            b.null_prob(),
            |va, vb| cmp.similarity(va, vb),
        )
    }

    #[test]
    fn paper_sim_name_t11_t22() {
        // sim(Tim, {Tim: .7, Kim: .3}) = .7·1 + .3·(2/3) = 0.9.
        let a = PValue::certain("Tim");
        let b = PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap();
        assert!((pvalue_similarity(&a, &b, &hamming()) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn paper_sim_job_t11_t22() {
        // sim({machinist: .7, mechanic: .2}, mechanic)
        //   = .7·(5/9) + .2·1 + .1·0 = 53/90 ≈ 0.589 (the paper rounds to 0.59).
        let a = PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap();
        let b = PValue::certain("mechanic");
        let s = pvalue_similarity(&a, &b, &hamming());
        assert!((s - 53.0 / 90.0).abs() < 1e-12);
        assert!((s - 0.59).abs() < 2e-3); // the paper's rounded figure
    }

    #[test]
    fn null_against_null_and_existing() {
        let null = PValue::null();
        let tim = PValue::certain("Tim");
        let c = hamming();
        assert_eq!(pvalue_similarity(&null, &null, &c), 1.0);
        assert_eq!(pvalue_similarity(&null, &tim, &c), 0.0);
        assert_eq!(pvalue_similarity(&tim, &null, &c), 0.0);
    }

    #[test]
    fn partial_null_mass_contributes() {
        // a = {x: .6, ⊥: .4}, b = {x: .5, ⊥: .5}:
        // x·x: .6·.5·1 = .3; ⊥·⊥: .4·.5 = .2 → 0.5.
        let a = PValue::categorical([("x", 0.6)]).unwrap();
        let b = PValue::categorical([("x", 0.5)]).unwrap();
        assert!((pvalue_similarity(&a, &b, &hamming()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_kernel_reduces_to_equality_probability() {
        let a = PValue::categorical([("Tim", 0.6), ("Tom", 0.4)]).unwrap();
        let b = PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap();
        let exact = ValueComparator::text(Exact);
        assert!((pvalue_similarity(&a, &b, &exact) - pvalue_equality(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn certain_identical_values_score_one() {
        let a = PValue::certain("machinist");
        assert_eq!(pvalue_similarity(&a, &a, &hamming()), 1.0);
    }

    #[test]
    fn symmetry() {
        let a = PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap();
        let b = PValue::categorical([("mechanic", 0.5), ("baker", 0.3)]).unwrap();
        let c = hamming();
        assert!((pvalue_similarity(&a, &b, &c) - pvalue_similarity(&b, &a, &c)).abs() < 1e-12);
    }

    #[test]
    fn numeric_distributions() {
        // Uncertain ages compared with the numeric kernel (scale 10).
        let a = PValue::categorical([(Value::Int(30), 0.5), (Value::Int(40), 0.5)]).unwrap();
        let b = PValue::certain(Value::Int(35));
        // .5·.5 + .5·.5 = 0.5.
        assert!((pvalue_similarity(&a, &b, &hamming()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pruned_matches_unpruned_on_paper_examples() {
        let cases = [
            (
                PValue::certain("Tim"),
                PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap(),
            ),
            (
                PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap(),
                PValue::certain("mechanic"),
            ),
            (PValue::null(), PValue::certain("Tim")),
            (PValue::null(), PValue::null()),
            (
                PValue::categorical([("x", 0.6)]).unwrap(),
                PValue::categorical([("x", 0.5)]).unwrap(),
            ),
        ];
        let c = hamming();
        for (a, b) in &cases {
            let slow = pvalue_similarity(a, b, &c);
            let fast = pruned(a, b, &c);
            assert!((slow - fast).abs() < 1e-12, "{a} vs {b}: {slow} / {fast}");
        }
    }

    #[test]
    fn pruned_matches_unpruned_on_long_low_mass_tails() {
        // Geometric tail: most of the mass in the first few alternatives,
        // so pruning breaks early — the result must still agree.
        let mk = |tag: char, n: i32| {
            PValue::categorical(
                (0..n).map(|i| (format!("{tag}{i:03}"), 0.5_f64.powi(i + 1).max(1e-18))),
            )
            .unwrap()
        };
        let c = hamming();
        for (na, nb) in [(1, 40), (40, 40), (25, 3)] {
            let a = mk('a', na);
            let b = mk('b', nb);
            let slow = pvalue_similarity(&a, &b, &c);
            let fast = pruned(&a, &b, &c);
            assert!((slow - fast).abs() < 1e-12, "{na}x{nb}: {slow} / {fast}");
        }
    }

    #[test]
    fn pruned_saturation_break_is_exact() {
        // Identical certain values saturate the sum at exactly 1.
        let a = PValue::certain("machinist");
        assert_eq!(pruned(&a, &a, &hamming()), 1.0);
    }

    #[test]
    fn pruned_covers_over_mass_distributions() {
        // The model tolerates supports summing to 1 + ε (ε ≤ PROB_EPS).
        // The pruning budget must be the *uncapped* sum, otherwise the
        // trailing ~ε of mass is silently skipped and the result drifts by
        // up to ε ≫ 1e-12 from the exhaustive sum.
        let b = PValue::categorical([("aa", 0.5), ("ab", 0.5), ("ac", 5e-10)]).unwrap();
        let a = PValue::certain("aa");
        let c = hamming();
        let slow = pvalue_similarity(&a, &b, &c);
        let fast = pruned(&a, &b, &c);
        assert!((slow - fast).abs() < 1e-12, "{slow} vs {fast}");
    }
}

//! Threshold-driven **bounded** Eq. 5 evaluation: stop as soon as the
//! expected similarity is certified to fall on one side of a cut.
//!
//! The exact paths ([`pvalue_similarity`](crate::pvalue_similarity) and the
//! interned pruning loop) compute every attribute similarity to full
//! precision; the decision layer then only compares the value against its
//! thresholds. For the vast majority of candidate pairs the comparison is
//! not close, so most of that precision is wasted. This module holds the
//! loop that evaluates Eq. 5 against a **cut interval** `[lo, hi)`
//! instead; its one entry point is the engine's
//! [`interned_pvalue_similarity_bounded`](crate::interned_pvalue_similarity_bounded),
//! which runs it over interned supports and prepared sidecars:
//!
//! * every visited support term either contributes its *exact* kernel value
//!   or — through the bounded kernels
//!   ([`StringComparator::similarity_within`][w] over prepared values,
//!   [`ValueComparator::similarity_prepared_within`](crate::ValueComparator::similarity_prepared_within))
//!   — a certificate that its kernel similarity is below the `lo` cut;
//! * the running certified interval is
//!   `[exact + ⊥·⊥, exact + skipped·lo + remaining mass + ⊥·⊥]`
//!   (every kernel value is ≤ 1, so unvisited terms are bounded by their
//!   probability mass — the same bound the `PRUNE_EPS` loop uses);
//! * evaluation returns [`BoundedSim::Above`] the moment the interval's
//!   lower end reaches `hi`, [`BoundedSim::Below`] the moment its upper
//!   end drops below `lo`, and [`BoundedSim::Exact`] when it ran out of
//!   terms with every visited kernel exact.
//!
//! Certificates are *certificates*: `Above` implies the exact (clamped)
//! Eq. 5 value is `≥ hi`, `Below` implies it is `< lo`, with the usual
//! caveat that the bound arithmetic itself is floating-point — callers
//! (the decision layer's attribute budgets) derive `lo`/`hi` with a margin
//! that dwarfs the accumulated rounding, so a certificate never
//! contradicts the classification the exact path would produce.
//!
//! In the rare case where bounded kernels skipped terms but the interval
//! never settled, the evaluation falls back to the exact pruned sum — the
//! attempt cost only prefilter-tier work.
//!
//! [w]: probdedup_textsim::StringComparator::similarity_within

use crate::interned::PRUNE_EPS;
use crate::pvalue_sim::pruned_expected_similarity;

/// Outcome of a bounded evaluation against the cut interval `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedSim {
    /// The exact value is certified `≥ hi`.
    Above,
    /// The exact value is certified `< lo`.
    Below,
    /// The evaluation ran to completion; the value is exact (up to the
    /// same `PRUNE_EPS` tail bound as the exact pruned path).
    Exact(f64),
}

impl BoundedSim {
    /// Resolve to a representative value: certificates collapse onto the
    /// cut they cleared. Only for reporting — classification consumes the
    /// variants directly.
    pub fn representative(self, lo: f64, hi: f64) -> f64 {
        match self {
            BoundedSim::Above => hi,
            BoundedSim::Below => lo,
            BoundedSim::Exact(v) => v,
        }
    }
}

/// The shared bounded Eq. 5 loop (see the module docs). `a_alts`/`b_alts`
/// need not be probability-sorted — the mass bound holds in any order,
/// descending order merely settles certificates sooner — but `a_mass`/
/// `b_mass` must be the uncapped probability sums, exactly as in
/// [`pruned_expected_similarity`].
///
/// `kernel_within(ka, kb, cut)` follows the bounded-kernel contract:
/// `Some(exact)` or a certificate that the kernel similarity is `< cut`.
/// `kernel_exact` is consulted only by the unsettled-interval fallback.
// The signature mirrors `pruned_expected_similarity` plus the cut interval
// and the second kernel — a parameter struct would only rename the zip.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bounded_expected_similarity<K>(
    a_alts: &[(K, f64)],
    a_mass: f64,
    a_null: f64,
    b_alts: &[(K, f64)],
    b_mass: f64,
    b_null: f64,
    lo: f64,
    hi: f64,
    mut kernel_within: impl FnMut(&K, &K, f64) -> Option<f64>,
    kernel_exact: impl FnMut(&K, &K) -> f64,
) -> BoundedSim {
    // The per-term kernel cut: if a term's kernel similarity is < cut, the
    // term contributes less than weight · cut to the total.
    let cut = lo.clamp(0.0, 1.0);
    let null_term = a_null * b_null;
    let mut sum = null_term; // certified lower bound of the visited total
    let mut skipped = 0.0; // certified upper mass of bound-certified terms
    let mut inexact = false;
    let mut rem_a = a_mass;
    for (ka, pa) in a_alts {
        rem_a -= pa;
        let mut rem_b = b_mass;
        for (kb, pb) in b_alts {
            rem_b -= pb;
            let w = pa * pb;
            match kernel_within(ka, kb, cut) {
                Some(s) => {
                    if s > 0.0 {
                        sum += w * s;
                    }
                }
                None => {
                    skipped += w * cut;
                    inexact = true;
                }
            }
            // Unvisited terms: the rest of this row plus all later rows.
            let unvisited = pa * rem_b + rem_a * b_mass;
            if hi <= 1.0 && sum >= hi {
                return BoundedSim::Above;
            }
            if sum >= 1.0 {
                // Saturated: the exact path clamps to exactly 1 here, and
                // skipped or unvisited terms can only add.
                return BoundedSim::Exact(1.0);
            }
            let upper = sum + skipped + unvisited;
            // A bound-certified term contributes *strictly* less than
            // `w · cut`, so with any skipped mass the upper end is
            // exclusive and equality with `lo` still certifies.
            if upper < lo || (skipped > 0.0 && upper <= lo) {
                return BoundedSim::Below;
            }
            if unvisited <= PRUNE_EPS {
                // Same tail bound as the exact pruning loop: the remaining
                // contribution is certifiably negligible.
                if inexact {
                    break;
                }
                return BoundedSim::Exact(sum.clamp(0.0, 1.0));
            }
        }
    }
    if !inexact {
        return BoundedSim::Exact(sum.clamp(0.0, 1.0));
    }
    // Bounded kernels skipped terms but the interval straddles a cut:
    // resolve exactly.
    BoundedSim::Exact(pruned_expected_similarity(
        a_alts,
        a_mass,
        a_null,
        b_alts,
        b_mass,
        b_null,
        kernel_exact,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interned::{
        interned_pvalue_similarity_bounded, InternedComparators, InternedPValue,
    };
    use crate::pvalue_sim::pvalue_similarity;
    use crate::value_cmp::ValueComparator;
    use crate::vector::AttributeComparators;
    use probdedup_model::intern::ValuePool;
    use probdedup_model::pvalue::PValue;
    use probdedup_textsim::{JaroWinkler, Levenshtein, NormalizedHamming};

    fn kernels() -> Vec<ValueComparator> {
        vec![
            ValueComparator::text(NormalizedHamming::new()),
            ValueComparator::text(Levenshtein::new()),
            ValueComparator::text(JaroWinkler::new()),
        ]
    }

    fn cases() -> Vec<(PValue, PValue)> {
        vec![
            (
                PValue::certain("Tim"),
                PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap(),
            ),
            (
                PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap(),
                PValue::certain("mechanic"),
            ),
            (PValue::certain("smith"), PValue::certain("garcia")),
            (PValue::null(), PValue::certain("Tim")),
            (PValue::null(), PValue::null()),
            (
                PValue::categorical([("x", 0.6)]).unwrap(),
                PValue::categorical([("x", 0.5)]).unwrap(),
            ),
            (
                PValue::categorical([("abcdef", 0.5), ("xyzuvw", 0.5)]).unwrap(),
                PValue::categorical([("abcdef", 0.2), ("qqqqqq", 0.8)]).unwrap(),
            ),
        ]
    }

    /// The engine's bounded Eq. 5 on one attribute pair `(a, b)` under
    /// `cmp`: both values interned into a fresh pool, sidecars built over it.
    fn bounded(a: &PValue, b: &PValue, cmp: &ValueComparator, lo: f64, hi: f64) -> BoundedSim {
        let mut pool = ValuePool::new();
        let (ia, ib) = (
            InternedPValue::from_pvalue(&mut pool, a),
            InternedPValue::from_pvalue(&mut pool, b),
        );
        let cmps = InternedComparators::new(
            &pool,
            &AttributeComparators::per_attribute(vec![cmp.clone()]),
        );
        interned_pvalue_similarity_bounded(&ia, &ib, 0, &cmps, lo, hi)
    }

    /// Every certificate must agree with the paper-literal Eq. 5, across a
    /// sweep of cut intervals.
    #[test]
    fn certificates_agree_with_exact() {
        for cmp in kernels() {
            for (a, b) in cases() {
                let exact = pvalue_similarity(&a, &b, &cmp);
                for lo100 in (0..=100).step_by(10) {
                    for hi100 in (lo100..=100).step_by(10) {
                        let (lo, hi) = (f64::from(lo100) / 100.0, f64::from(hi100) / 100.0);
                        match bounded(&a, &b, &cmp, lo, hi) {
                            BoundedSim::Above => {
                                assert!(exact >= hi - 1e-9, "{a} vs {b}: {exact} < hi {hi}")
                            }
                            BoundedSim::Below => {
                                assert!(exact < lo + 1e-9, "{a} vs {b}: {exact} >= lo {lo}")
                            }
                            BoundedSim::Exact(v) => {
                                assert!((v - exact).abs() < 1e-12, "{a} vs {b}: {v} != {exact}")
                            }
                        }
                    }
                }
            }
        }
    }

    /// Saturation: identical certain values certify without full precision
    /// but still resolve to exactly 1.
    #[test]
    fn saturation_is_exact() {
        let a = PValue::certain("machinist");
        for cmp in kernels() {
            match bounded(&a, &a, &cmp, 0.2, 0.8) {
                BoundedSim::Above => {}
                other => panic!("expected Above, got {other:?}"),
            }
            assert_eq!(bounded(&a, &a, &cmp, 0.0, 1.5), BoundedSim::Exact(1.0));
        }
    }

    #[test]
    fn representative_values_classify_consistently() {
        assert_eq!(BoundedSim::Above.representative(0.2, 0.8), 0.8);
        assert_eq!(BoundedSim::Below.representative(0.2, 0.8), 0.2);
        assert_eq!(BoundedSim::Exact(0.5).representative(0.2, 0.8), 0.5);
    }
}

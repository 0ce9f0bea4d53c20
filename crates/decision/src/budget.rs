//! Threshold decomposition into **running attribute budgets**: the decision
//! layer's half of bounded evaluation.
//!
//! The similarity-based model (Fig. 6, left, with the weighted-sum φ and
//! the Eq. 6 expectation ϑ) is linear in every attribute similarity:
//!
//! ```text
//! sim(t₁,t₂) = Σᵢⱼ w₁ᵢ·w₂ⱼ · Σₐ wₐ · cᵢⱼ[a]
//! ```
//!
//! with every `cᵢⱼ[a] ∈ [0,1]`. After any prefix of the terms has been
//! evaluated exactly, the rest is bracketed by `[0, remaining weight]` —
//! so the classification thresholds `(T_λ, T_μ)` decompose into running
//! budgets: the moment the certified interval clears `T_μ` the pair is a
//! match, the moment it drops below `T_λ` it is a non-match, and the
//! moment it is pinned inside `[T_λ, T_μ)` it is a possible match — no
//! further attribute needs to be looked at. [`classify_comparison_bounded`]
//! walks alternative pairs (heaviest conditioned weight first is not
//! required — the mass bound holds in any order) and, inside each, the
//! attributes in **descending φ-weight order**, handing every attribute
//! evaluation the cut interval that would settle the band (the φ-level and
//! per-attribute cut derivations of `phi_cuts` / `phi_bounded`); the
//! attribute evaluator answers with a
//! [`BoundedSim`] — typically produced by the bounded Eq. 5 loop of
//! `probdedup-matching`, which in turn hands per-term cuts to the text
//! kernels' bounded entry points. Thresholds flow *down* the whole stack; exact values flow
//! up only as far as they are needed.
//!
//! **Certificate margin.** All cut derivations happen in floating point,
//! and the bounded evaluation sums terms in a different order than the
//! exact path, so the two can disagree by rounding (≲1e-12). Certificates
//! are therefore taken against thresholds tightened by [`CERT_MARGIN`]
//! (1e-9, three orders of magnitude above the worst observed drift): a
//! certified class can only differ from the exact classification if the
//! exact similarity lies within the margin of a threshold — in which case
//! the budgets never certify and the walk runs to completion. Property
//! tests (`tests/bounded_classification.rs` at the workspace root) pin
//! bounded-equals-exact classification across generated schemas with all
//! three Fellegi–Sunter bands populated.

use probdedup_matching::bounded::BoundedSim;

use crate::combine::WeightedSum;
use crate::threshold::{MatchClass, Thresholds};

/// Safety margin for certificates: bounds are only trusted when they clear
/// a threshold by at least this much, so floating-point drift between the
/// bounded and exact summation orders can never flip a classification.
pub const CERT_MARGIN: f64 = 1e-9;

/// Which bound tier disposed of a pair (reported per pair by
/// [`classify_comparison_bounded`] and aggregated into the pipeline's
/// matching stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundedTier {
    /// Certified `≥ T_μ` before the evaluation finished.
    EarlyMatch,
    /// Certified `< T_λ` before the evaluation finished.
    EarlyNonMatch,
    /// Certified inside `[T_λ, T_μ)` before the evaluation finished.
    EarlyPossible,
    /// Ran to completion; classified from the accumulated exact value.
    Exhausted,
}

/// A bounded classification outcome.
///
/// `similarity` is a **certified representative**, not the exact degree:
/// a certified lower bound for (early) matches, a certified upper bound
/// for non-matches, and the accumulated exact value otherwise. It always
/// classifies (via the same thresholds) to `class` — consumers that need
/// the exact degree must run the exact path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedDecision {
    /// The matching value η.
    pub class: MatchClass,
    /// A certified representative similarity (see the type docs).
    pub similarity: f64,
    /// Which bound settled the pair.
    pub tier: BoundedTier,
}

/// The decomposed thresholds: φ weights in descending processing order
/// with suffix sums (best-possible-remaining contributions), plus the
/// margin-tightened classification cuts.
#[derive(Debug, Clone)]
pub struct AttributeBudgets {
    /// Attribute indices, heaviest φ weight first.
    order: Vec<usize>,
    /// φ weight per attribute (original indexing).
    weights: Vec<f64>,
    /// `suffix[pos]` = Σ of the weights of `order[pos+1..]` — the maximum
    /// contribution every attribute after position `pos` can still add.
    suffix: Vec<f64>,
    /// Σ of all weights: the maximum φ value on the unit hypercube.
    total: f64,
    thresholds: Thresholds,
}

impl AttributeBudgets {
    /// Decompose `thresholds` over the weighted-sum φ. Attributes are
    /// ordered by descending weight so the heaviest evidence is consumed
    /// first and the band settles as early as possible.
    pub fn new(phi: &WeightedSum, thresholds: Thresholds) -> Self {
        let weights = phi.weights().to_vec();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .expect("finite weights")
                .then(a.cmp(&b))
        });
        let mut suffix = vec![0.0; order.len()];
        let mut rest = 0.0;
        for pos in (0..order.len()).rev() {
            suffix[pos] = rest;
            rest += weights[order[pos]];
        }
        Self {
            order,
            weights,
            suffix,
            total: rest,
            thresholds,
        }
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.weights.len()
    }

    /// The thresholds being decomposed.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The φ-level cut interval for one alternative pair, given the exact
    /// accumulated contribution `acc` of the pairs already evaluated, this
    /// pair's conditioned weight `w`, and the total conditioned weight
    /// `rem` of the pairs still to come: a φ value `≥ hi_cut` certifies a
    /// match on its own, a φ value `< lo_cut` certifies a non-match even
    /// if everything remaining scores perfectly.
    fn phi_cuts(&self, acc: f64, w: f64, rem: f64) -> (f64, f64) {
        let hi_cut = (self.thresholds.mu() + CERT_MARGIN - acc) / w;
        let lo_cut = (self.thresholds.lambda() - CERT_MARGIN - acc - rem * self.total) / w;
        (lo_cut, hi_cut)
    }
}

/// Bounded φ over one comparison vector: attributes in descending-weight
/// order, each evaluated against the cut interval that would settle this
/// vector's verdict. `eval(attr, lo, hi)` produces the attribute's
/// [`BoundedSim`].
fn phi_bounded(
    budgets: &AttributeBudgets,
    lo: f64,
    hi: f64,
    mut eval: impl FnMut(usize, f64, f64) -> BoundedSim,
) -> BoundedSim {
    let mut acc = 0.0;
    for (pos, &attr) in budgets.order.iter().enumerate() {
        let wa = budgets.weights[attr];
        if wa <= 0.0 {
            continue;
        }
        let rest = budgets.suffix[pos];
        // s ≥ (hi − acc)/wa certifies φ ≥ hi even with zero remaining;
        // s < (lo − acc − rest)/wa certifies φ < lo even with perfect
        // remaining attributes.
        let hi_cut = (hi - acc) / wa;
        let lo_cut = (lo - acc - rest) / wa;
        match eval(attr, lo_cut, hi_cut) {
            BoundedSim::Above => return BoundedSim::Above,
            BoundedSim::Below => return BoundedSim::Below,
            BoundedSim::Exact(s) => acc += wa * s,
        }
        if acc >= hi {
            return BoundedSim::Above;
        }
        if acc + rest < lo {
            return BoundedSim::Below;
        }
    }
    BoundedSim::Exact(acc)
}

/// Bounded classification of one x-tuple pair under the linear
/// similarity-based model (weighted-sum φ + Eq. 6 expectation ϑ +
/// thresholds).
///
/// `w1`/`w2` are the **conditioned** alternative probabilities of the two
/// x-tuples (each summing to 1 — see
/// [`normalized_alternative_probs`](probdedup_model::condition::normalized_alternative_probs)),
/// and `eval(i, j, attr, lo, hi)` evaluates attribute `attr` of
/// alternative pair `(i, j)` against the cut interval `[lo, hi)` —
/// typically `interned_pvalue_similarity_bounded` from
/// `probdedup-matching`.
///
/// Classification is **identical** to running the exact model and
/// thresholding, as long as the exact similarity does not sit within
/// [`CERT_MARGIN`] of a threshold (where certificates abstain and the
/// accumulated value decides; the accumulated value can differ from the
/// exact path's by summation-order rounding ≪ the margin).
pub fn classify_comparison_bounded(
    w1: &[f64],
    w2: &[f64],
    budgets: &AttributeBudgets,
    mut eval: impl FnMut(usize, usize, usize, f64, f64) -> BoundedSim,
) -> BoundedDecision {
    let thresholds = budgets.thresholds;
    let (lambda, mu) = (thresholds.lambda(), thresholds.mu());
    let mu_cut = mu + CERT_MARGIN;
    let lambda_cut = lambda - CERT_MARGIN;
    let mut acc = 0.0;
    let mut rem = 1.0;
    for (i, &wi) in w1.iter().enumerate() {
        for (j, &wj) in w2.iter().enumerate() {
            let w = wi * wj;
            rem -= w;
            if w <= 0.0 {
                continue;
            }
            let (lo_cut, hi_cut) = budgets.phi_cuts(acc, w, rem.max(0.0));
            match phi_bounded(budgets, lo_cut, hi_cut, |attr, lo, hi| {
                eval(i, j, attr, lo, hi)
            }) {
                // φ ≥ hi_cut ⟹ total ≥ acc + w·hi_cut = μ + margin.
                BoundedSim::Above => {
                    return BoundedDecision {
                        class: MatchClass::Match,
                        similarity: acc + w * hi_cut,
                        tier: BoundedTier::EarlyMatch,
                    }
                }
                // φ < lo_cut ⟹ total < acc + w·lo_cut + rem·W = λ − margin.
                BoundedSim::Below => {
                    return BoundedDecision {
                        class: MatchClass::NonMatch,
                        similarity: (acc + w * lo_cut + rem.max(0.0) * budgets.total).max(0.0),
                        tier: BoundedTier::EarlyNonMatch,
                    }
                }
                BoundedSim::Exact(phi) => acc += w * phi,
            }
            // Inter-pair settlement on the certified interval
            // [acc, acc + rem·W].
            if acc >= mu_cut {
                return BoundedDecision {
                    class: MatchClass::Match,
                    similarity: acc,
                    tier: BoundedTier::EarlyMatch,
                };
            }
            let upper = acc + rem.max(0.0) * budgets.total;
            if upper < lambda_cut {
                return BoundedDecision {
                    class: MatchClass::NonMatch,
                    similarity: upper.max(0.0),
                    tier: BoundedTier::EarlyNonMatch,
                };
            }
            if thresholds.has_possible_band()
                && acc >= lambda + CERT_MARGIN
                && upper < mu - CERT_MARGIN
            {
                return BoundedDecision {
                    class: MatchClass::Possible,
                    similarity: acc,
                    tier: BoundedTier::EarlyPossible,
                };
            }
        }
    }
    BoundedDecision {
        class: thresholds.classify(acc),
        similarity: acc,
        tier: BoundedTier::Exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets() -> AttributeBudgets {
        // The synthetic workload's weights: heaviest first order is [0, 2, 1, 3].
        AttributeBudgets::new(
            &WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap(),
            Thresholds::new(0.72, 0.82).unwrap(),
        )
    }

    /// Exact reference: Σᵢⱼ wᵢⱼ Σₐ wₐ·cᵢⱼ[a], classified.
    fn exact_class(
        w1: &[f64],
        w2: &[f64],
        vectors: &dyn Fn(usize, usize) -> Vec<f64>,
        b: &AttributeBudgets,
    ) -> (MatchClass, f64) {
        let mut total = 0.0;
        for (i, &wi) in w1.iter().enumerate() {
            for (j, &wj) in w2.iter().enumerate() {
                let c = vectors(i, j);
                let phi: f64 = c.iter().zip(&b.weights).map(|(x, w)| x * w).sum();
                total += wi * wj * phi;
            }
        }
        (b.thresholds.classify(total), total)
    }

    fn run(
        w1: &[f64],
        w2: &[f64],
        vectors: &dyn Fn(usize, usize) -> Vec<f64>,
        b: &AttributeBudgets,
    ) -> BoundedDecision {
        classify_comparison_bounded(w1, w2, b, |i, j, attr, lo, hi| {
            let s = vectors(i, j)[attr];
            // An adversarially-certifying evaluator: certify whenever the
            // cuts allow it, exposing any unsound cut derivation.
            if s >= hi {
                BoundedSim::Above
            } else if s < lo {
                BoundedSim::Below
            } else {
                BoundedSim::Exact(s)
            }
        })
    }

    #[test]
    fn processing_order_is_descending_weight() {
        let b = budgets();
        assert_eq!(b.order, vec![0, 2, 1, 3]);
        assert!((b.total - 1.0).abs() < 1e-12);
        assert!((b.suffix[0] - 0.5).abs() < 1e-12);
        assert_eq!(b.arity(), 4);
    }

    #[test]
    fn certified_classes_match_exact_on_grid() {
        let b = budgets();
        // Sweep single-alternative comparison vectors over a value grid.
        let grid = [0.0, 0.2, 0.45, 0.6, 0.75, 0.8, 0.85, 0.95, 1.0];
        for &a0 in &grid {
            for &a1 in &grid {
                for &a2 in &grid {
                    for &a3 in &grid {
                        let v = vec![a0, a1, a2, a3];
                        let vectors = move |_: usize, _: usize| v.clone();
                        let got = run(&[1.0], &[1.0], &vectors, &b);
                        let (want, sim) = exact_class(&[1.0], &[1.0], &vectors, &b);
                        if (sim - 0.72).abs() < CERT_MARGIN || (sim - 0.82).abs() < CERT_MARGIN {
                            // Inside the certificate margin the documented
                            // guarantee is summation-order agreement, not
                            // bit-identical ties; the property tests choose
                            // thresholds away from observed values.
                            continue;
                        }
                        assert_eq!(
                            got.class, want,
                            "vector {a0}/{a1}/{a2}/{a3} (exact sim {sim})"
                        );
                        // The representative similarity classifies the same.
                        assert_eq!(b.thresholds.classify(got.similarity), got.class);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_alternative_pairs_settle_early() {
        let b = budgets();
        // Three alternatives vs two: a clear non-match everywhere.
        let vectors = |_: usize, _: usize| vec![0.1, 0.2, 0.1, 0.0];
        let w1 = [0.5, 0.3, 0.2];
        let w2 = [0.7, 0.3];
        let got = run(&w1, &w2, &vectors, &b);
        assert_eq!(got.class, MatchClass::NonMatch);
        assert_eq!(got.tier, BoundedTier::EarlyNonMatch);
        // And a clear match settles as EarlyMatch.
        let ones = |_: usize, _: usize| vec![1.0, 1.0, 1.0, 1.0];
        let got = run(&w1, &w2, &ones, &b);
        assert_eq!(got.class, MatchClass::Match);
        assert_eq!(got.tier, BoundedTier::EarlyMatch);
    }

    #[test]
    fn possible_band_settles_without_exhaustion() {
        // Wide possible band, flat vector pinned inside it.
        let b = AttributeBudgets::new(
            &WeightedSum::normalized([1.0, 1.0]).unwrap(),
            Thresholds::new(0.2, 0.9).unwrap(),
        );
        // Two equally-weighted alternatives on one side: after the first
        // alternative pair the interval is [0.25, 0.75] ⊂ [0.2, 0.9).
        let vectors = |_: usize, _: usize| vec![0.5, 0.5];
        let got = run(&[0.5, 0.5], &[1.0], &vectors, &b);
        assert_eq!(got.class, MatchClass::Possible);
        assert_eq!(got.tier, BoundedTier::EarlyPossible);
    }

    #[test]
    fn abstaining_evaluator_degrades_to_exact() {
        // An evaluator that never certifies must still classify correctly.
        let b = budgets();
        let vectors = |_: usize, _: usize| vec![0.9, 0.8, 0.7, 0.6];
        let got = classify_comparison_bounded(&[1.0], &[1.0], &b, |_, _, attr, _, _| {
            BoundedSim::Exact(vectors(0, 0)[attr])
        });
        let (want, sim) = exact_class(&[1.0], &[1.0], &vectors, &b);
        assert_eq!(got.class, want);
        assert!((got.similarity - sim).abs() < 1e-12);
    }

    #[test]
    fn binary_thresholds_never_emit_possible() {
        let b = AttributeBudgets::new(
            &WeightedSum::normalized([1.0]).unwrap(),
            Thresholds::single(0.5).unwrap(),
        );
        for s in [0.0, 0.49, 0.5, 0.51, 1.0] {
            let vectors = move |_: usize, _: usize| vec![s];
            let got = run(&[1.0], &[1.0], &vectors, &b);
            assert_ne!(got.class, MatchClass::Possible, "s = {s}");
            assert_eq!(got.class, b.thresholds.classify(s), "s = {s}");
        }
    }
}

//! Decision-based derivation functions ϑ : {m,p,u}^{k×l} → ℝ (Fig. 6,
//! right).
//!
//! Step 1 classifies every alternative pair into {m, p, u}; a derivation
//! function collapses the resulting matching-value matrix η⃗ into the
//! x-tuple similarity. Because it works on the discrete {m,p,u} domain, the
//! result is coarser than a similarity-based derivation — but it is robust
//! to non-normalized step-1 values (a matching weight of 10⁶ for an
//! improbable alternative pair cannot dominate), which is why the paper
//! deems it "more adequate for probabilistic techniques".

use crate::threshold::MatchClass;

/// The per-alternative-pair matching values of an x-tuple pair together
/// with the conditioned alternative probabilities.
#[derive(Debug, Clone, Copy)]
pub struct AlternativeDecisions<'a> {
    /// Row-major `k × l` matching values `η(t₁ⁱ, t₂ʲ)`.
    pub classes: &'a [MatchClass],
    /// Conditioned probabilities `p(t₁ⁱ)/p(t₁)` (length `k`).
    pub w1: &'a [f64],
    /// Conditioned probabilities `p(t₂ʲ)/p(t₂)` (length `l`).
    pub w2: &'a [f64],
}

impl AlternativeDecisions<'_> {
    /// Iterate `(weight, class)`, where `weight` is the conditioned world
    /// mass of the alternative pair.
    pub fn iter(&self) -> impl Iterator<Item = (f64, MatchClass)> + '_ {
        let l = self.w2.len();
        self.classes.iter().enumerate().map(move |(idx, &cls)| {
            let (i, j) = (idx / l, idx % l);
            (self.w1[i] * self.w2[j], cls)
        })
    }

    /// The world masses `(P(m), P(p), P(u))` of Eqs. 8–9: total conditioned
    /// probability of the worlds whose alternative pair was classified
    /// match / possible / non-match.
    pub fn class_masses(&self) -> (f64, f64, f64) {
        let mut pm = 0.0;
        let mut pp = 0.0;
        let mut pu = 0.0;
        for (w, cls) in self.iter() {
            match cls {
                MatchClass::Match => pm += w,
                MatchClass::Possible => pp += w,
                MatchClass::NonMatch => pu += w,
            }
        }
        (pm, pp, pu)
    }
}

/// A decision-based derivation function ϑ.
pub trait DecisionDerivation: Send + Sync {
    /// Collapse the matching-value matrix into one degree.
    fn derive(&self, input: &AlternativeDecisions<'_>) -> f64;

    /// Short human-readable name.
    fn name(&self) -> &str {
        "decision-derivation"
    }
}

/// Eq. 7: `sim(t₁,t₂) = P(m)/P(u)` — a matching weight over world masses
/// (Eqs. 8–9). **Non-normalized**: ranges over `[0, ∞]`.
///
/// Edge cases (the paper leaves them open; we document our choice):
/// `P(u) = 0` with `P(m) > 0` yields `+∞` (certainly a match, unless a cap
/// is configured via [`MatchingWeightDerivation::with_cap`]); `P(m) = P(u)
/// = 0` (all mass on possible matches) yields the neutral weight `1`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchingWeightDerivation {
    cap: Option<f64>,
}

impl MatchingWeightDerivation {
    /// The uncapped Eq. 7 derivation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace infinite weights by `cap` (useful for plotting/sweeps).
    pub fn with_cap(cap: f64) -> Self {
        Self { cap: Some(cap) }
    }
}

impl DecisionDerivation for MatchingWeightDerivation {
    fn derive(&self, input: &AlternativeDecisions<'_>) -> f64 {
        let (pm, _, pu) = input.class_masses();
        let raw = if pu > 0.0 {
            pm / pu
        } else if pm > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        match self.cap {
            Some(c) => raw.min(c),
            None => raw,
        }
    }

    fn name(&self) -> &str {
        "matching-weight"
    }
}

/// The expected matching result `E(η(t₁ⁱ,t₂ʲ) | B)` with the paper's
/// encoding `{m = 2, p = 1, u = 0}` (Section IV-B, last paragraph).
/// Ranges over `[0, 2]`; [`ExpectedMatchingResult::normalized`] rescales to
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpectedMatchingResult {
    normalized: bool,
}

impl ExpectedMatchingResult {
    /// The paper's `[0, 2]`-ranged expectation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rescaled to `[0, 1]` (divides by 2).
    pub fn normalized() -> Self {
        Self { normalized: true }
    }
}

impl DecisionDerivation for ExpectedMatchingResult {
    fn derive(&self, input: &AlternativeDecisions<'_>) -> f64 {
        let e: f64 = input.iter().map(|(w, cls)| w * cls.as_score()).sum();
        if self.normalized {
            e / 2.0
        } else {
            e
        }
    }

    fn name(&self) -> &str {
        if self.normalized {
            "expected-matching-result-normalized"
        } else {
            "expected-matching-result"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MatchClass::{Match, NonMatch, Possible};

    /// Fig. 7's decision-based example: classes (m, p, u) with conditioned
    /// weights (3/9, 2/9, 4/9).
    fn fig7_input() -> (Vec<MatchClass>, Vec<f64>, Vec<f64>) {
        (
            vec![Match, Possible, NonMatch],
            vec![0.3 / 0.9, 0.2 / 0.9, 0.4 / 0.9],
            vec![1.0],
        )
    }

    #[test]
    fn fig7_class_masses() {
        let (classes, w1, w2) = fig7_input();
        let input = AlternativeDecisions {
            classes: &classes,
            w1: &w1,
            w2: &w2,
        };
        let (pm, pp, pu) = input.class_masses();
        assert!((pm - 3.0 / 9.0).abs() < 1e-12); // P(m) = P(I1|B)
        assert!((pp - 2.0 / 9.0).abs() < 1e-12);
        assert!((pu - 4.0 / 9.0).abs() < 1e-12); // P(u) = P(I3|B)
    }

    #[test]
    fn fig7_matching_weight_is_0_75() {
        let (classes, w1, w2) = fig7_input();
        let input = AlternativeDecisions {
            classes: &classes,
            w1: &w1,
            w2: &w2,
        };
        let sim = MatchingWeightDerivation::new().derive(&input);
        assert!((sim - 0.75).abs() < 1e-12, "sim = {sim}");
    }

    #[test]
    fn fig7_expected_matching_result_is_8_9ths() {
        // E(η) = 2·(3/9) + 1·(2/9) + 0·(4/9) = 8/9.
        let (classes, w1, w2) = fig7_input();
        let input = AlternativeDecisions {
            classes: &classes,
            w1: &w1,
            w2: &w2,
        };
        assert!((ExpectedMatchingResult::new().derive(&input) - 8.0 / 9.0).abs() < 1e-12);
        assert!((ExpectedMatchingResult::normalized().derive(&input) - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn matching_weight_edge_cases() {
        let w1 = vec![1.0];
        let w2 = vec![1.0];
        // All match, no unmatch mass → ∞ (uncapped) or the cap.
        let all_match = AlternativeDecisions {
            classes: &[Match],
            w1: &w1,
            w2: &w2,
        };
        assert!(MatchingWeightDerivation::new()
            .derive(&all_match)
            .is_infinite());
        assert_eq!(
            MatchingWeightDerivation::with_cap(100.0).derive(&all_match),
            100.0
        );
        // All possible → neutral weight 1.
        let all_possible = AlternativeDecisions {
            classes: &[Possible],
            w1: &w1,
            w2: &w2,
        };
        assert_eq!(MatchingWeightDerivation::new().derive(&all_possible), 1.0);
        // All unmatch → 0.
        let all_unmatch = AlternativeDecisions {
            classes: &[NonMatch],
            w1: &w1,
            w2: &w2,
        };
        assert_eq!(MatchingWeightDerivation::new().derive(&all_unmatch), 0.0);
    }

    #[test]
    fn weights_partition_across_classes() {
        let classes = vec![Match, NonMatch, Possible, Match];
        let w1 = vec![0.5, 0.5];
        let w2 = vec![0.25, 0.75];
        let input = AlternativeDecisions {
            classes: &classes,
            w1: &w1,
            w2: &w2,
        };
        let (pm, pp, pu) = input.class_masses();
        assert!((pm + pp + pu - 1.0).abs() < 1e-12);
    }
}

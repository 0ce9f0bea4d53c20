//! Decision models for duplicate detection in probabilistic data
//! (Sections III-D and IV-B of Panse et al., ICDE 2010).
//!
//! For **certain-data** tuple pairs the classical two-step scheme of Fig. 3
//! applies: a combination function φ collapses the comparison vector into a
//! single similarity degree, which one or two thresholds classify into
//! *match* (M), *possible match* (P) or *non-match* (U). Two families are
//! implemented:
//!
//! * **knowledge-based** ([`rules`]): identification rules with certainty
//!   factors (Fig. 1) — normalized similarity degrees;
//! * **probabilistic** ([`fellegi_sunter`]): the Fellegi–Sunter theory, with
//!   m/u-probabilities per attribute, matching weight `R = m(c⃗)/u(c⃗)`,
//!   optimal threshold selection from error bounds, and unsupervised
//!   parameter estimation via the EM algorithm ([`em`], Winkler 1988) —
//!   non-normalized matching weights.
//!
//! For **x-tuple** pairs the comparison vector becomes a k×l matrix, and the
//! paper defines two adaptations (Fig. 6), both implemented in [`xmodel`]:
//!
//! * **similarity-based derivation** — φ on every alternative pair, then a
//!   derivation function ϑ : ℝ^{k×l} → ℝ ([`derive_sim`]); the canonical ϑ
//!   is the conditional expectation over possible worlds (Eq. 6);
//! * **decision-based derivation** — classify every alternative pair first,
//!   then derive from the matching values η ∈ {m,p,u}^{k×l}
//!   ([`derive_decision`]); the canonical ϑ is the matching weight
//!   `P(m)/P(u)` over world masses (Eqs. 7–9).
//!
//! # Example
//!
//! The certain-data two-step scheme (Fig. 3): combine a comparison vector
//! with φ, classify with thresholds `T_λ`, `T_μ`:
//!
//! ```
//! use probdedup_decision::combine::{CombinationFunction, WeightedSum};
//! use probdedup_decision::threshold::{MatchClass, Thresholds};
//!
//! // The paper's φ(c⃗) = 0.8·c_name + 0.2·c_job.
//! let phi = WeightedSum::new([0.8, 0.2]).unwrap();
//! let sim = phi.combine(&[0.9, 53.0 / 90.0]); // sim(t11, t22), Section IV-A
//! let thresholds = Thresholds::new(0.6, 0.8).unwrap();
//! assert_eq!(thresholds.classify(sim), MatchClass::Match);
//! assert_eq!(thresholds.classify(0.7), MatchClass::Possible);
//! assert_eq!(thresholds.classify(0.2), MatchClass::NonMatch);
//! ```

pub mod budget;
pub mod combine;
pub mod derive_decision;
pub mod derive_sim;
pub mod em;
pub mod error;
pub mod fellegi_sunter;
pub mod model;
pub mod rules;
pub mod threshold;
pub mod xmodel;

pub use budget::{
    classify_comparison_bounded, AttributeBudgets, BoundedDecision, BoundedTier, CERT_MARGIN,
};
pub use combine::{CombinationFunction, WeightedSum};
pub use derive_decision::{DecisionDerivation, ExpectedMatchingResult, MatchingWeightDerivation};
pub use derive_sim::{ExpectedSimilarity, MaxSimilarity, MinSimilarity, SimilarityDerivation};
pub use em::{fit_em, EmConfig, EmResult};
pub use error::DecisionError;
pub use fellegi_sunter::FellegiSunter;
pub use model::{DecisionModel, SimpleModel};
pub use rules::{Condition, Rule, RuleSet};
pub use threshold::{MatchClass, Thresholds};
pub use xmodel::{DecisionBasedModel, SimilarityBasedModel, XDecision, XTupleDecisionModel};

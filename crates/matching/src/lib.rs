//! Attribute value matching for probabilistic data (Section IV-A of Panse et
//! al., ICDE 2010).
//!
//! The similarity of two uncertain attribute values `a₁`, `a₂` over the
//! extended domain `D̂ = D ∪ {⊥}` is their **expected pairwise similarity**
//! (Eq. 5):
//!
//! ```text
//! sim(a₁, a₂) = Σ_{d₁∈D̂} Σ_{d₂∈D̂}  P(a₁=d₁) · P(a₂=d₂) · sim(d₁, d₂)
//! ```
//!
//! with the non-existence conventions `sim(⊥,⊥) = 1` and `sim(a,⊥) =
//! sim(⊥,a) = 0` — two non-existent values state the same real-world fact,
//! while an existing value is definitely not similar to a non-existing one.
//! With the exact-equality kernel this reduces to Eq. 4, the probability
//! that both values are equal.
//!
//! Comparing two tuples attribute by attribute yields the **comparison
//! vector** `c⃗ ∈ [0,1]ⁿ` the decision models consume; comparing two
//! x-tuples yields the k×l **comparison matrix** of Fig. 6.
//!
//! Two implementations of Eq. 5 live here, with different jobs:
//!
//! * the **paper-literal reference** ([`pvalue_sim`], [`matrix`]) — Eq. 5
//!   straight off [`PValue`](probdedup_model::pvalue::PValue)s: readable,
//!   and what the engine is tested against. No pipeline driver runs it;
//! * the **interned path** ([`interned`]) — values are interned once into
//!   a [`ValuePool`](probdedup_model::intern::ValuePool), Eq. 5 runs over
//!   dense symbols with alternatives in descending probability order
//!   (enabling upper-bound pruning), and each kernel evaluates over
//!   per-symbol [`PreparedValue`]s (ASCII class, character length, class
//!   mask) precomputed once at interning time, so the Jaro family's lane
//!   scan in `probdedup-textsim` skips its per-comparison scans. Kernel
//!   results are computed, not memoized: every similarity is a pure
//!   function of its two symbols. Its bounded entry
//!   ([`interned_pvalue_similarity_bounded`], the loop of [`bounded`])
//!   evaluates Eq. 5 against a cut interval. This is what the pipeline's
//!   matching engine executes — always.
//!
//! # Example
//!
//! The paper's Section IV-A worked example — `sim(t11.name, t22.name)`:
//!
//! ```
//! use probdedup_matching::{pvalue_similarity, ValueComparator};
//! use probdedup_model::pvalue::PValue;
//! use probdedup_textsim::NormalizedHamming;
//!
//! let a = PValue::certain("Tim");
//! let b = PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap();
//! let cmp = ValueComparator::text(NormalizedHamming::new());
//! let plain = pvalue_similarity(&a, &b, &cmp);
//! assert!((plain - 0.9).abs() < 1e-12); // 0.7·1 + 0.3·(2/3)
//! ```

pub mod bounded;
pub mod interned;
pub mod matrix;
pub mod pvalue_sim;
pub mod value_cmp;
pub mod vector;

pub use bounded::BoundedSim;
pub use interned::{
    compare_xtuples_interned, intern_tuples, intern_tuples_into, interned_pvalue_similarity,
    interned_pvalue_similarity_bounded, InternedComparators, InternedPValue, InternedXTuple,
};
pub use matrix::{compare_xtuples, ComparisonMatrix};
pub use pvalue_sim::pvalue_similarity;
pub use value_cmp::{PreparedValue, ValueComparator};
pub use vector::{compare_tuples, AttributeComparators, ComparisonVector};

//! # probdedup — Duplicate Detection in Probabilistic Data
//!
//! A complete Rust implementation of *“Duplicate Detection in Probabilistic
//! Data”* (Fabian Panse, Maurice van Keulen, Ander de Keijzer, Norbert
//! Ritter; ICDE 2010 workshops), including every substrate the paper relies
//! on:
//!
//! * [`model`] — a probabilistic relational data model: uncertain attribute
//!   values with explicit non-existence (⊥), tuple-membership probabilities,
//!   Trio-style x-tuples, possible-world semantics and conditioning.
//! * [`textsim`] — normalized string and numeric comparison functions
//!   (normalized Hamming, Levenshtein, Jaro(-Winkler), numeric closeness,
//!   exact equality) and the value normalizer.
//! * [`matching`] — attribute value matching for uncertain values: the
//!   expected-similarity formulas (Eqs. 4/5), comparison vectors and the
//!   k×l comparison matrices of x-tuple pairs.
//! * [`decision`] — decision models: combination functions φ, knowledge-based
//!   identification rules, the Fellegi–Sunter model with EM estimation, and
//!   the paper's x-tuple derivation functions ϑ (similarity-based, Eq. 6;
//!   decision-based, Eqs. 7–9; expected matching result E(η)).
//! * [`reduction`] — search-space reduction adapted to probabilistic data:
//!   four sorted-neighborhood variants (multi-pass over worlds, certain keys
//!   via conflict resolution, sorting alternatives, uncertain-key ranking)
//!   and blocking variants (Figs. 8–14).
//! * [`datagen`] — seeded synthetic probabilistic datasets with ground truth.
//! * [`eval`] — verification metrics (Section III-E): precision, recall, F1,
//!   pairs completeness, reduction ratio.
//! * [`core`] — the end-to-end pipeline: preparation → reduction → matching
//!   → decision → clustering (+ fusion and probabilistic results).
//! * [`entity`] — entity resolution over the pairwise verdicts: match-graph
//!   build, and connected components vs. greedy or repaired correlation
//!   clustering.
//!
//! ## Quickstart
//!
//! ```
//! use probdedup::model::{Relation, Schema};
//! use probdedup::prelude::*;
//!
//! // The paper's relation ℛ1 (Fig. 4), attribute-level uncertainty:
//! let schema = Schema::new(["name", "job"]);
//! let mut r1 = Relation::new(schema.clone());
//! r1.push(
//!     ProbTuple::builder(&schema)
//!         .certain("name", "Tim")
//!         .dist("job", [("machinist", 0.7), ("mechanic", 0.2)])
//!         .probability(1.0)
//!         .build()
//!         .unwrap(),
//! );
//!
//! let mut r2 = Relation::new(schema.clone());
//! r2.push(
//!     ProbTuple::builder(&schema)
//!         .dist("name", [("Tim", 0.7), ("Kim", 0.3)])
//!         .certain("job", "mechanic")
//!         .probability(0.8)
//!         .build()
//!         .unwrap(),
//! );
//!
//! // Expected similarity under the normalized Hamming kernel (Eq. 5):
//! let cmp = AttributeComparators::uniform(&schema, NormalizedHamming::new());
//! let c = compare_tuples(&r1.tuples()[0], &r2.tuples()[0], &cmp);
//! assert!((c[0] - 0.9).abs() < 1e-12);        // sim(name) = 0.9 (paper, Sec. IV-A)
//! assert!((c[1] - 53.0 / 90.0).abs() < 1e-12); // sim(job) ≈ 0.59
//! ```

pub mod paper;

pub use probdedup_core as core;
pub use probdedup_datagen as datagen;
pub use probdedup_decision as decision;
pub use probdedup_entity as entity;
pub use probdedup_eval as eval;
pub use probdedup_matching as matching;
pub use probdedup_model as model;
pub use probdedup_reduction as reduction;
pub use probdedup_serve as serve;
pub use probdedup_textsim as textsim;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use probdedup_core::pipeline::{DedupPipeline, DedupResult};
    pub use probdedup_decision::combine::{CombinationFunction, WeightedSum};
    pub use probdedup_decision::threshold::{MatchClass, Thresholds};
    pub use probdedup_entity::{ClusterStrategy, ResolveEntities};
    pub use probdedup_matching::pvalue_sim::pvalue_similarity;
    pub use probdedup_matching::vector::{compare_tuples, AttributeComparators};
    pub use probdedup_model::pvalue::PValue;
    pub use probdedup_model::relation::{Relation, XRelation};
    pub use probdedup_model::tuple::ProbTuple;
    pub use probdedup_model::value::Value;
    pub use probdedup_model::xtuple::XTuple;
    pub use probdedup_textsim::{NormalizedHamming, StringComparator};
}

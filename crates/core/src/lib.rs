//! The end-to-end duplicate-detection pipeline for probabilistic data —
//! the five-step process of Section III of Panse et al. (ICDE 2010),
//! assembled from the workspace crates:
//!
//! 1. **Data preparation** ([`prepare`]) — standardize attribute value
//!    distributions (case, whitespace, diacritics, replacements).
//! 2. **Search-space reduction** ([`pipeline::ReductionStrategy`]) — any of
//!    the paper's SNM/blocking adaptations, or the full quadratic scan.
//! 3. **Attribute value matching** — comparison matrices via
//!    `probdedup-matching` (Eq. 5 per attribute): the relation is interned
//!    once and the one matching `engine` runs Eq. 5 over symbols and
//!    their prepared sidecars on the work-stealing [`exec`] pair
//!    executor.
//! 4. **Decision model** — any [`XTupleDecisionModel`] (similarity-based or
//!    decision-based derivation, Fig. 6), or the classify-only linear
//!    model that stops evaluating a pair once its class is certified.
//! 5. **Verification** — hooks into `probdedup-eval` (the
//!    [`pipeline::DedupResult`] exposes everything the metrics need).
//!
//! Beyond the paper's determined process, [`prob_result`] implements the
//! conclusion's outlook: emitting the *uncertainty of the dedup decision
//! itself* as probabilistic data (mutually exclusive sets of tuples).
//!
//! The paper's process is batch; realistic deployments re-deduplicate a
//! mostly-unchanged corpus as new tuples arrive. The [`session`] module
//! provides the persistent front door: a
//! [`session::DedupSession`] owns the warm state (interner
//! pools, key tables, prepared sidecars) across runs and supports
//! [`ingest`](session::DedupSession::ingest)-style incremental
//! deduplication — only new-vs-resident candidate pairs are classified,
//! and the merged result is split-invariant (property-tested equal to a
//! one-shot batch run).
//!
//! # Example
//!
//! A minimal end-to-end run over one two-tuple relation:
//!
//! ```
//! use std::sync::Arc;
//! use probdedup_core::pipeline::{DedupPipeline, ReductionStrategy};
//! use probdedup_decision::combine::WeightedSum;
//! use probdedup_decision::derive_sim::ExpectedSimilarity;
//! use probdedup_decision::threshold::Thresholds;
//! use probdedup_decision::xmodel::SimilarityBasedModel;
//! use probdedup_matching::vector::AttributeComparators;
//! use probdedup_model::relation::XRelation;
//! use probdedup_model::schema::Schema;
//! use probdedup_model::xtuple::XTuple;
//! use probdedup_textsim::NormalizedHamming;
//!
//! let schema = Schema::new(["name", "job"]);
//! let mut r = XRelation::new(schema.clone());
//! r.push(XTuple::builder(&schema).alt(1.0, ["John", "pilot"]).build().unwrap());
//! r.push(XTuple::builder(&schema).alt(0.8, ["John", "pilot"]).build().unwrap());
//!
//! let pipeline = DedupPipeline::builder()
//!     .comparators(AttributeComparators::uniform(&schema, NormalizedHamming::new()))
//!     .model(Arc::new(SimilarityBasedModel::new(
//!         Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
//!         Arc::new(ExpectedSimilarity),
//!         Thresholds::new(0.6, 0.8).unwrap(),
//!     )))
//!     .reduction(ReductionStrategy::Full)
//!     .build();
//! let result = pipeline.run(&[&r]).unwrap();
//! assert_eq!(result.candidates, 1);
//! // Identical value distributions match despite the differing
//! // membership probabilities (Section IV: membership must not
//! // influence dedup).
//! assert_eq!(result.clusters, vec![vec![0, 1]]);
//! ```
//!
//! [`XTupleDecisionModel`]: probdedup_decision::xmodel::XTupleDecisionModel

pub mod cluster;
pub(crate) mod engine;
pub mod exec;
pub mod fusion;
pub(crate) mod memo;
pub mod pipeline;
pub mod prepare;
pub mod prob_result;
pub mod session;
#[doc(hidden)]
pub mod shard;
pub mod shared;
pub mod snapshot;
#[doc(hidden)]
pub mod test_support;
pub mod wal;
pub(crate) mod warm;

pub use cluster::UnionFind;
pub use exec::par_map_index;
pub use fusion::fuse_xtuples;
pub use pipeline::{
    BoundedClassifyConfig, DedupPipeline, DedupResult, Defaults, MatchingStats, PairDecision,
    Partition, ReductionStrategy,
};
pub use prepare::Preparation;
pub use prob_result::{probabilistic_result, ProbabilisticResult};
pub use session::{DedupSession, IncrementalResult};
pub use shared::{SharedSession, WriteError};
pub use wal::{SessionJournal, WalReplay};

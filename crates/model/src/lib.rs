//! Probabilistic relational data model — the substrate of *Duplicate
//! Detection in Probabilistic Data* (Panse et al., ICDE 2010).
//!
//! A probabilistic database is a pair `PDB = (W, P)` of possible worlds and a
//! probability distribution over them. Because worlds overlap heavily (and
//! may be infinite in number), this crate implements the succinct
//! representation the paper works with:
//!
//! * **Attribute-value-level uncertainty** — [`PValue`]: a categorical
//!   distribution over domain values with an *implicit non-existence mass*
//!   (`⊥`, [`Value::Null`]): if the alternatives of a value sum to `p < 1`,
//!   the remaining `1 − p` is the probability that the property does not
//!   exist (e.g. tuple `t11` of Fig. 4 is jobless with probability 0.1).
//! * **Tuple-level uncertainty** — [`ProbTuple::probability`]: the likelihood
//!   that a tuple belongs to its relation. Per the paper's Section IV,
//!   membership must *not* influence duplicate detection; the
//!   [`condition`] module implements the conditioning/scaling this requires.
//! * **Dependencies between attribute values** — [`XTuple`]: a Trio-style
//!   x-tuple of mutually exclusive alternative tuples, each with its own
//!   probability; *maybe* x-tuples (probability sum < 1, marked `?` in the
//!   paper's figures) are supported, as are per-attribute distributions
//!   inside an alternative (e.g. the `mu*` pattern value of tuple `t31`).
//! * **Possible worlds** — [`world`]: lazy enumeration of the worlds induced
//!   by a set of x-tuples, their probabilities, and conditioning on the
//!   event *B* that all considered tuples exist (Fig. 7).
//! * **Value interning** — [`intern`]: a [`ValuePool`] mapping each distinct
//!   [`Value`] to a dense `u32` [`Symbol`], so the matching hot path
//!   and blocking keys can work with integer comparisons
//!   instead of cloning and hashing strings.
//!
//! The model is deliberately self-contained (no external DB) and
//! deterministic; everything needed by the matching, decision and reduction
//! layers lives here.
//!
//! # Example
//!
//! Interning gives every distinct value a dense [`Symbol`]; the
//! [`KeyPool`] sidecar does the same for rendered key prefixes:
//!
//! ```
//! use probdedup_model::{KeyPool, Value, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let tim = pool.intern(&Value::from("Tim"));
//! assert_eq!(pool.intern(&Value::from("Tim")), tim); // idempotent
//! assert_eq!(pool.resolve(tim), &Value::from("Tim"));
//!
//! let mut keys = KeyPool::new();
//! let prefix = keys.prefix_of(&pool, tim, 2); // rendered once, cached
//! assert_eq!(keys.resolve(prefix), "Ti");
//! assert_eq!(keys.render_count(), 1);
//! keys.prefix_of(&pool, tim, 2);
//! assert_eq!(keys.render_count(), 1); // cache hit: no second render
//! ```

pub mod condition;
pub mod convert;
pub mod error;
pub mod format;
pub mod ids;
pub mod intern;
pub mod lineage;
pub mod pvalue;
pub mod relation;
pub mod sample;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod tuple;
pub mod util;
pub mod value;
pub mod world;
pub mod xtuple;

pub use condition::{existence_event_probability, normalized_alternative_probs};
pub use error::ModelError;
pub use ids::{SourceId, TupleHandle};
pub use intern::{KeyPool, KeyRanks, KeySymbol, Symbol, SymbolMap, ValuePool};
pub use lineage::AlternativeSets;
pub use pvalue::PValue;
pub use relation::{Relation, XRelation};
pub use sample::WorldSampler;
pub use schema::{AttrType, Schema};
pub use snapshot::SnapshotError;
pub use tuple::ProbTuple;
pub use value::Value;
pub use world::{World, WorldIter};
pub use xtuple::{XAlternative, XTuple};

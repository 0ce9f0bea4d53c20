//! Synthetic probabilistic datasets with ground truth.
//!
//! The paper evaluates on two hand-crafted example relations; no public
//! probabilistic-dedup corpus exists. This crate is the substitution: a
//! seeded generator that produces x-relations with controlled error and
//! uncertainty characteristics plus the entity-level ground truth needed
//! to measure recall/precision (the verification step of Section III-E).
//!
//! The generation pipeline per record mirrors how probabilistic data
//! arises in practice (e.g. uncertain extraction/integration output):
//!
//! 1. sample a ground-truth entity (name/job/city/age from dictionaries),
//! 2. corrupt some attribute values (typos, OCR confusions, missing
//!    values) — the *dirty data* the detector must see through,
//! 3. inject **attribute-level uncertainty**: an observed value becomes a
//!    categorical distribution whose support may or may not contain the
//!    truth,
//! 4. optionally lift the record to a multi-alternative **x-tuple**
//!    (correlated row variants) and/or a *maybe* tuple (`p(t) < 1`).
//!
//! Every step is driven by one seeded RNG: identical configs produce
//! identical datasets.
//!
//! # Example
//!
//! ```
//! use probdedup_datagen::{generate, DatasetConfig, Dictionaries};
//!
//! let cfg = DatasetConfig {
//!     entities: 20,
//!     sources: 2,
//!     seed: 7,
//!     ..DatasetConfig::default()
//! };
//! let a = generate(&Dictionaries::people(), &cfg);
//! assert_eq!(a.relations.len(), 2);
//! assert!(a.total_rows() >= 20);
//! // Same seed, same dataset — bit for bit.
//! let b = generate(&Dictionaries::people(), &cfg);
//! assert_eq!(a.combined().xtuples(), b.combined().xtuples());
//! ```

pub mod corrupt;
pub mod dict;
pub mod generator;
pub mod truth;

pub use corrupt::{CorruptionConfig, Corruptor};
pub use dict::Dictionaries;
pub use generator::{generate, DatasetConfig, SyntheticDataset};
pub use truth::GroundTruth;

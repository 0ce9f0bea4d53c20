//! Search-space reduction for probabilistic data (Section V of Panse et
//! al., ICDE 2010).
//!
//! Comparing all `n·(n−1)/2` tuple pairs is quadratic and quickly
//! prohibitive; classical remedies are the **sorted neighborhood method**
//! (SNM: sort by a key, compare within a sliding window) and **blocking**
//! (partition by a key, compare within partitions). Both need a *key* —
//! and in probabilistic data the key attributes may be uncertain. The paper
//! proposes four SNM adaptations and three blocking adaptations, all
//! implemented here:
//!
//! | Paper section | Method | Module |
//! |---------------|--------|--------|
//! | V-A.1 | multi-pass over possible worlds (with careful world selection) | [`multipass`] |
//! | V-A.2 | certain keys via conflict resolution (most probable alternative) | [`conflict`] |
//! | V-A.3 | sorting alternatives (one key per alternative, executed-matching matrix) | [`alternatives`] |
//! | V-A.4 | uncertain keys + probabilistic ranking | [`ranking`] |
//! | V-B   | blocking: multi-pass / conflict-resolved / per-alternative keys / clustering | [`blocking`], [`cluster`] |
//!
//! All methods emit deterministic, deduplicated [`CandidatePairs`] over
//! tuple indices of one (combined) x-relation, ready for the matching and
//! decision layers.
//!
//! Each keyed adaptation has **one implementation**, over one structure:
//! a `(rank, tuple)`-sorted entry list, from which SNM emits every window
//! of `w` entries and blocking every run of equal keys (a block). The
//! world-independent adaptations — conflict-resolved SNM, sorting
//! alternatives and blocking by alternative or resolved keys — are the
//! warm [`IncrementalSnm`] of [`incremental`], that a persistent session
//! feeds batch by batch; the one-shot [`conflict_resolved_snm`],
//! [`sorting_alternatives`], [`block_alternatives`] and
//! [`block_conflict_resolved`] are a fresh state fed once and read once,
//! its Fig. 10 / 11 / 14 views included. The world-dependent multi-pass
//! methods share one loop over the selected worlds, which sorts each
//! world's entry list; their pair-returning functions and Fig. 9 view are
//! window or run sinks over it.
//!
//! # Interned keys
//!
//! Every SNM/blocking implementation runs over **interned keys**: a
//! [`key::KeyTable`] renders each distinct `(value, prefix length)`
//! exactly once into a
//! [`KeyPool`](probdedup_model::intern::KeyPool), and from there SNM and
//! blocking sort dense [`KeySymbol`](probdedup_model::intern::KeySymbol)s
//! by precomputed lexicographic rank — so multi-pass
//! methods are sort-only from pass 2 on (zero renders, asserted by the
//! property tests), and a warm state renders only values it has not seen.
//! The string-rendering implementations are retained test-only as the
//! `*_oracle` functions of `src/interned_oracle.rs` and property-tested to
//! produce identical candidate-pair sets and inspection views, one-shot
//! and fed batch by batch.
//!
//! # Example
//!
//! The paper's running key over an uncertain tuple (Fig. 13):
//!
//! ```
//! use probdedup_model::pvalue::PValue;
//! use probdedup_model::schema::Schema;
//! use probdedup_model::xtuple::XTuple;
//! use probdedup_reduction::KeySpec;
//!
//! let schema = Schema::new(["name", "job"]);
//! // t31: (John, pilot) with p=0.7 | (Johan, mu*) with p=0.3.
//! let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
//! let t31 = XTuple::builder(&schema)
//!     .alt(0.7, ["John", "pilot"])
//!     .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
//!     .build()
//!     .unwrap();
//!
//! // First 3 characters of the name + first 2 of the job.
//! let spec = KeySpec::paper_example(0, 1);
//! let mut keys = spec.xtuple_keys(&t31);
//! keys.sort_by(|a, b| a.0.cmp(&b.0));
//! assert_eq!(keys[0].0, "Johmu"); // both mu* outcomes render "mu"
//! assert_eq!(keys[1].0, "Johpi");
//! ```

pub mod alternatives;
pub mod blocking;
pub mod cluster;
pub mod conflict;
pub mod incremental;
#[cfg(test)]
mod interned_oracle;
pub mod key;
pub mod multipass;
pub mod pairs;
pub mod ranking;
pub mod snm;

pub use alternatives::{sorting_alternatives, SortingAlternativesResult};
pub use blocking::{
    block_alternatives, block_conflict_resolved, block_multipass, block_multipass_with_table,
    BlockingResult,
};
pub use cluster::{cluster_blocking, ClusterBlockingConfig};
pub use conflict::{conflict_resolved_snm, resolve_key, ConflictResolution};
pub use incremental::{CandidateDelta, IncrementalSnm, Keying};
pub use key::{KeyPart, KeySpec, KeyTable};
pub use multipass::{multipass_snm, multipass_snm_with_table, MultipassResult, WorldSelection};
pub use pairs::CandidatePairs;
pub use ranking::{ranked_snm, RankingFunction};
pub use snm::{sorted_neighborhood, SnmEntry};

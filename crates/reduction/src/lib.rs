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
//! Each family has **one emission loop** that consumers hand a sink: the
//! window scan [`for_each_window_pair`] over a sorted entry list (with
//! [`for_each_world_pass`] as the SNM loop over selected worlds), and the
//! sorted-key block visitors [`for_each_alternative_block`],
//! [`for_each_conflict_resolved_block`] and [`for_each_multipass_block`]
//! (the blocking loop over selected worlds). The `CandidatePairs`-returning
//! functions and the Fig. 9 / Fig. 14 inspection views are sinks over
//! those loops, so they cannot drift apart on emission order.
//!
//! # Interned keys
//!
//! Every SNM/blocking entry point runs over **interned keys**: a
//! [`key::KeyTable`] built once per call renders each distinct
//! `(value, prefix length)` exactly once into a
//! [`KeyPool`](probdedup_model::intern::KeyPool), and from there blocking
//! buckets on dense [`KeySymbol`](probdedup_model::intern::KeySymbol)s
//! while SNM sorts by precomputed lexicographic rank — so multi-pass
//! methods are sort-only from pass 2 on (zero renders, asserted by the
//! property tests). The string-rendering implementations are retained
//! test-only as the `*_oracle` functions of `src/interned_oracle.rs` and
//! property-tested to produce identical candidate-pair sets and
//! inspection views.
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

pub use alternatives::{
    sorted_alternative_entries, sorting_alternatives, SortingAlternativesResult,
};
pub use blocking::{
    block_alternatives, block_conflict_resolved, block_multipass, block_multipass_with_table,
    for_each_alternative_block, for_each_conflict_resolved_block, for_each_multipass_block,
    BlockingResult,
};
pub use cluster::{cluster_blocking, ClusterBlockingConfig};
pub use conflict::{
    conflict_resolved_snm, resolve_key, resolve_key_symbol, sorted_resolved_entries,
    ConflictResolution,
};
pub use incremental::{
    BlockKeying, CandidateDelta, IncrementalBlocks, IncrementalRankedSnm, IncrementalSnm, SnmKeying,
};
pub use key::{KeyPart, KeySpec, KeyTable};
pub use multipass::{
    for_each_world_pass, multipass_snm, multipass_snm_pairs, multipass_snm_with_table,
    MultipassResult, WorldSelection,
};
pub use pairs::CandidatePairs;
pub use ranking::{rank_score, rank_tuples, ranked_snm, RankingFunction};
pub use snm::{
    for_each_window_pair, sort_entries, sorted_neighborhood, sorted_neighborhood_interned,
    windowed_pairs, InternedSnmEntry, SnmEntry,
};

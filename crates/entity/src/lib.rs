//! Entity resolution over pairwise dedup verdicts — the merge/purge step
//! the paper's pipeline stops short of.
//!
//! The dedup pipeline ends with a Match / Possible / NonMatch partition
//! of the candidate pairs; this crate turns that into *entities*: the
//! verdicts are built into a signed, similarity-weighted [`MatchGraph`]
//! (one CSR per sign, in two reads of the decisions), and a
//! [`ClusterStrategy`] partitions it into entities.
//!
//! Three strategies compete on measured quality (`probdedup-eval`'s
//! cluster metrics):
//!
//! * [`ClusterStrategy::Components`] — transitive closure of Match edges
//!   (the classical baseline; gluing everything a match chain reaches).
//! * [`ClusterStrategy::CorrelationGreedy`] — Ailon-style greedy pivot
//!   correlation clustering under a fixed (ascending row) pivot order.
//! * [`ClusterStrategy::CorrelationRepaired`] — greedy pivot plus a
//!   best-move local search that repairs inconsistent triangles
//!   (`A≈B, B≈C, A≉C`) by net edge weight.
//!
//! # Determinism
//!
//! Every strategy is a pure function of the decided pairs — insertion
//! order is erased by the graph build, pivots follow row order, and
//! local-search moves demand strict improvement with deterministic
//! tie-breaks. Output is therefore byte-stable across thread counts and
//! ingest splits whenever the decisions themselves are, which the engine
//! guarantees in both configurations.
//!
//! Nothing stores a resolution. [`ResolveEntities`] is implemented for a
//! finished `DedupResult` and for a warm
//! [`DedupSession`](probdedup_core::DedupSession) (a `&self` read of its
//! decision memo); a session restored from a snapshot holds the same
//! decisions and therefore resolves to the same bytes.
//!
//! # Example
//!
//! ```
//! use probdedup_core::PairDecision;
//! use probdedup_decision::MatchClass;
//! use probdedup_entity::{resolve_decisions, ClusterStrategy};
//!
//! // An inconsistent triangle: 0≈1 strongly, 1≈2 weakly, 0≉2 strongly.
//! let decisions = vec![
//!     PairDecision { pair: (0, 1), similarity: 0.92, class: MatchClass::Match },
//!     PairDecision { pair: (1, 2), similarity: 0.70, class: MatchClass::Match },
//!     PairDecision { pair: (0, 2), similarity: 0.08, class: MatchClass::NonMatch },
//! ];
//!
//! // Transitive closure glues all three rows into one entity...
//! let naive = resolve_decisions(3, &decisions, ClusterStrategy::Components);
//! assert_eq!(naive.clusters, vec![vec![0, 1, 2]]);
//! assert_eq!(naive.stats.inconsistent_triangles, 1);
//!
//! // ...while the repaired strategy splits the weak link by net weight.
//! let repaired = resolve_decisions(3, &decisions, ClusterStrategy::CorrelationRepaired);
//! assert_eq!(repaired.clusters, vec![vec![0, 1], vec![2]]);
//! ```

mod cluster;
pub mod graph;
pub mod resolve;
pub mod strategy;

pub use graph::{MatchGraph, MatchGraphBuilder};
pub use resolve::{
    resolve_decisions, resolve_graph, EntityResolution, EntityStats, ResolveEntities,
};
pub use strategy::ClusterStrategy;

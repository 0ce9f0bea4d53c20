//! Entity resolution proper: turn decided pairs into an
//! [`EntityResolution`] under a [`ClusterStrategy`].

use probdedup_core::{DedupResult, DedupSession, PairDecision};

use crate::cluster::{canonical_partition, components, greedy_pivot, repair};
use crate::graph::{build, MatchGraph};
use crate::strategy::ClusterStrategy;

/// Counters describing one resolution (graph shape + clustering work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntityStats {
    /// Combined-relation rows clustered.
    pub rows: usize,
    /// Entities in the partition (clusters, singletons included).
    pub entities: usize,
    /// Rows merged away: `rows − entities`.
    pub duplicates: usize,
    /// Largest cluster.
    pub max_cluster_size: usize,
    /// Match edges in the graph.
    pub positive_edges: usize,
    /// NonMatch edges in the graph.
    pub negative_edges: usize,
    /// Possible-band edges (kept out of clustering).
    pub possible_edges: usize,
    /// Inconsistent triangles (`A≈B, B≈C, A≉C`) in the graph — a property
    /// of the verdicts, identical for every strategy.
    pub inconsistent_triangles: usize,
    /// Local-search moves the repair pass performed (0 for the
    /// closed-form strategies).
    pub repair_moves: u64,
}

/// A resolved entity partition of a dedup run.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityResolution {
    /// The strategy that produced it.
    pub strategy: ClusterStrategy,
    /// Rows of the combined relation the row indices refer to.
    pub rows: usize,
    /// The full partition: every row in exactly one cluster, clusters
    /// ordered by smallest member, members ascending.
    pub clusters: Vec<Vec<usize>>,
    /// The Possible-band edges `(i, j, similarity)` — the clerical-review
    /// residue the partition deliberately does not act on.
    pub possible: Vec<(usize, usize, f64)>,
    /// Graph and clustering counters.
    pub stats: EntityStats,
}

impl EntityResolution {
    /// Clusters that actually merged rows (size ≥ 2).
    pub fn duplicate_clusters(&self) -> impl Iterator<Item = &[usize]> {
        self.clusters
            .iter()
            .filter(|c| c.len() >= 2)
            .map(Vec::as_slice)
    }

    /// One-line report, e.g. `strategy correlation-repaired: 50 rows → 31
    /// entities (12 duplicate clusters, largest 4); 3 inconsistent
    /// triangles, 2 repair moves, 5 possible edges left to review`.
    pub fn summary(&self) -> String {
        let dup_clusters = self.duplicate_clusters().count();
        format!(
            "strategy {}: {} rows → {} entities ({} duplicate cluster{}, largest {}); \
             {} inconsistent triangle{}, {} repair move{}, {} possible edge{} left to review",
            self.strategy,
            self.stats.rows,
            self.stats.entities,
            dup_clusters,
            if dup_clusters == 1 { "" } else { "s" },
            self.stats.max_cluster_size,
            self.stats.inconsistent_triangles,
            if self.stats.inconsistent_triangles == 1 {
                ""
            } else {
                "s"
            },
            self.stats.repair_moves,
            if self.stats.repair_moves == 1 {
                ""
            } else {
                "s"
            },
            self.stats.possible_edges,
            if self.stats.possible_edges == 1 {
                ""
            } else {
                "s"
            },
        )
    }
}

/// Resolve a finished [`MatchGraph`] under `strategy`.
pub fn resolve_graph(graph: &MatchGraph, strategy: ClusterStrategy) -> EntityResolution {
    let (clusters, repair_moves) = match strategy {
        ClusterStrategy::Components => (components(graph), 0),
        ClusterStrategy::CorrelationGreedy => (canonical_partition(&greedy_pivot(graph)), 0),
        ClusterStrategy::CorrelationRepaired => {
            let mut assign = greedy_pivot(graph);
            let moves = repair(graph, &mut assign);
            (canonical_partition(&assign), moves)
        }
    };
    let stats = EntityStats {
        rows: graph.rows(),
        entities: clusters.len(),
        duplicates: graph.rows() - clusters.len(),
        max_cluster_size: clusters.iter().map(Vec::len).max().unwrap_or(0),
        positive_edges: graph.positive_edge_count(),
        negative_edges: graph.negative_edge_count(),
        possible_edges: graph.possible().len(),
        inconsistent_triangles: graph.inconsistent_triangles(),
        repair_moves,
    };
    EntityResolution {
        strategy,
        rows: graph.rows(),
        clusters,
        possible: graph.possible().to_vec(),
        stats,
    }
}

/// Resolve a decision list over `rows` combined-relation rows (any pair
/// order — the graph build canonicalizes).
pub fn resolve_decisions(
    rows: usize,
    decisions: &[PairDecision],
    strategy: ClusterStrategy,
) -> EntityResolution {
    resolve_graph(&build(rows, || decisions.iter().copied()), strategy)
}

/// Entity resolution as a read of decided pairs: a pure function of them,
/// so the value is the same wherever they are held.
pub trait ResolveEntities {
    /// Cluster the decided pairs into entities under `strategy`.
    fn resolve_entities(&self, strategy: ClusterStrategy) -> EntityResolution;
}

impl ResolveEntities for DedupResult {
    fn resolve_entities(&self, strategy: ClusterStrategy) -> EntityResolution {
        resolve_decisions(self.relation.len(), &self.decisions, strategy)
    }
}

/// Reads the session's decision memo directly
/// ([`DedupSession::decisions`]): the match graph is pair-order-invariant,
/// so no [`DedupResult`] — relation clone, ordered candidate list,
/// transitive closure — is assembled, and the session is left untouched.
impl ResolveEntities for DedupSession {
    fn resolve_entities(&self, strategy: ClusterStrategy) -> EntityResolution {
        resolve_graph(&build(self.rows(), || self.decisions()), strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_decision::MatchClass;

    fn decision(pair: (usize, usize), similarity: f64, class: MatchClass) -> PairDecision {
        PairDecision {
            pair,
            similarity,
            class,
        }
    }

    /// The constructed inconsistent-triangle fixture of the issue: A≈B
    /// strongly, B≈C weakly, A≉C strongly.
    fn triangle() -> Vec<PairDecision> {
        vec![
            decision((0, 1), 0.9, MatchClass::Match),
            decision((1, 2), 0.7, MatchClass::Match),
            decision((0, 2), 0.1, MatchClass::NonMatch),
        ]
    }

    #[test]
    fn components_glue_the_inconsistent_triangle() {
        let r = resolve_decisions(3, &triangle(), ClusterStrategy::Components);
        assert_eq!(r.clusters, vec![vec![0, 1, 2]]);
        assert_eq!(r.stats.inconsistent_triangles, 1);
        assert_eq!(r.stats.repair_moves, 0);
    }

    #[test]
    fn repair_splits_the_inconsistent_triangle() {
        let r = resolve_decisions(3, &triangle(), ClusterStrategy::CorrelationRepaired);
        // Net weight keeps the strong pair {0, 1} and splits C off: C's
        // tie to the cluster is 0.7 − 0.9 < 0.
        assert_eq!(r.clusters, vec![vec![0, 1], vec![2]]);
        assert_eq!(r.stats.inconsistent_triangles, 1);
    }

    #[test]
    fn resolution_is_invariant_under_pair_order() {
        let mut decisions = triangle();
        decisions.push(decision((0, 3), 0.75, MatchClass::Possible));
        let forward: Vec<EntityResolution> = ClusterStrategy::ALL
            .into_iter()
            .map(|s| resolve_decisions(4, &decisions, s))
            .collect();
        decisions.reverse();
        for (s, f) in ClusterStrategy::ALL.into_iter().zip(forward) {
            assert_eq!(resolve_decisions(4, &decisions, s), f, "strategy {s}");
        }
    }

    #[test]
    fn possible_edges_do_not_cluster() {
        let decisions = vec![decision((0, 1), 0.75, MatchClass::Possible)];
        for s in ClusterStrategy::ALL {
            let r = resolve_decisions(2, &decisions, s);
            assert_eq!(r.clusters, vec![vec![0], vec![1]], "strategy {s}");
            assert_eq!(r.possible, vec![(0, 1, 0.75)]);
            assert_eq!(r.stats.possible_edges, 1);
        }
    }

    #[test]
    fn stats_and_summary_agree() {
        let r = resolve_decisions(3, &triangle(), ClusterStrategy::CorrelationRepaired);
        assert_eq!(r.stats.rows, 3);
        assert_eq!(r.stats.entities, 2);
        assert_eq!(r.stats.duplicates, 1);
        assert_eq!(r.stats.max_cluster_size, 2);
        assert_eq!(r.stats.positive_edges, 2);
        assert_eq!(r.stats.negative_edges, 1);
        let s = r.summary();
        assert!(s.contains("correlation-repaired"), "{s}");
        assert!(s.contains("3 rows → 2 entities"), "{s}");
    }

    #[test]
    fn empty_input_resolves_to_nothing() {
        for s in ClusterStrategy::ALL {
            let r = resolve_decisions(0, &[], s);
            assert!(r.clusters.is_empty());
            assert_eq!(r.stats, EntityStats::default());
        }
    }
}

//! The clustering algorithms behind [`ClusterStrategy`]: connected
//! components, greedy pivot, and the best-move local-search repair.
//!
//! [`ClusterStrategy`]: crate::ClusterStrategy

use probdedup_core::UnionFind;

use crate::graph::{seek, MatchGraph};

/// Strict-improvement threshold of the local search: a move must beat the
/// current placement by more than this, so floating-point noise cannot
/// make two placements oscillate forever.
const EPS: f64 = 1e-12;

/// Local-search round cap. Each round is a full ascending sweep; the
/// search normally reaches a fixed point in two or three rounds, and the
/// cap makes termination unconditional.
pub(crate) const MAX_REPAIR_ROUNDS: usize = 16;

/// Transitive closure of the positive edges — every node in its
/// component, singletons included, smallest-member order.
pub(crate) fn components(graph: &MatchGraph) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(graph.rows());
    for v in 0..graph.rows() {
        for &(u, _) in graph.positive_neighbors(v) {
            uf.union(v, u);
        }
    }
    uf.clusters_with_map().0
}

/// Ailon-style greedy pivot: visit nodes ascending; each unassigned node
/// pivots a new cluster and absorbs its unassigned positive neighbors.
/// Returns the cluster id per node. Deterministic by construction (the
/// pivot order is the node order), and every cluster's pivot is its
/// smallest member — a smaller positive neighbor would have pivoted (or
/// been absorbed) first.
pub(crate) fn greedy_pivot(graph: &MatchGraph) -> Vec<usize> {
    let n = graph.rows();
    let mut assign = vec![usize::MAX; n];
    let mut next = 0;
    for v in 0..n {
        if assign[v] != usize::MAX {
            continue;
        }
        assign[v] = next;
        for &(u, _) in graph.positive_neighbors(v) {
            if assign[u] == usize::MAX {
                assign[u] = next;
            }
        }
        next += 1;
    }
    assign
}

/// Best-move local search over `assign`: each node may move to the
/// neighboring cluster (or a fresh singleton) maximizing its net
/// agreement `Σ w⁺(positive edges inside) − Σ w⁻(negative edges
/// inside)`; only strictly improving moves are taken. Returns the number
/// of moves performed.
///
/// Deterministic: nodes sweep in ascending order, candidate clusters are
/// scored in ascending id order with ties resolved toward the current
/// placement first and the smallest cluster id second, and each move
/// strictly increases the (bounded) global objective, so the fixed point
/// — and every step toward it — is a pure function of the graph.
///
/// A node's candidates are its own cluster and its positive neighbors'
/// clusters: a cluster it reaches only through negative edges scores
/// `≤ 0` (each weight is `1 − agreement ≥ 0`), so it cannot beat a current
/// placement scoring `≥ −EPS`. Each candidate sums its positive
/// contributions by ascending neighbor, then its negative ones by
/// ascending member (looked up in the node's sorted negative adjacency),
/// so a round costs the Match edges, not the NonMatch edges. A node
/// scoring below `−EPS` where it sits will move, and any cluster may
/// receive it: it alone takes the full scan of [`dense_best`]. Either
/// way every score is the `f64` of the full scan's adjacency order.
pub(crate) fn repair(graph: &MatchGraph, assign: &mut [usize]) -> u64 {
    let n = graph.rows();
    let mut moves = 0u64;
    let mut next_fresh = assign.iter().copied().max().map_or(0, |m| m + 1);
    let mut score = vec![0.0f64; next_fresh];
    let mut members = Members::new(assign, next_fresh);
    // Clusters scored for the node at hand.
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..MAX_REPAIR_ROUNDS {
        let mut changed = false;
        for v in 0..n {
            let cur = assign[v];
            // A row with no Match edge alone in its cluster stays: its
            // only candidate is its own cluster, which scores 0 (no edge
            // reaches another member), not below `−EPS`, and a fresh
            // singleton's 0 does not beat that. With a member beside it a
            // NonMatch edge can sink it below `−EPS`, and then it moves.
            if graph.positive_neighbors(v).is_empty() && members.is_singleton(v, cur) {
                continue;
            }
            touched.push(cur);
            for &(u, w) in graph.positive_neighbors(v) {
                score[assign[u]] += w;
                touched.push(assign[u]);
            }
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                let mut neg = graph.negative_neighbors(v);
                for m in members.of(c) {
                    if neg.is_empty() {
                        break;
                    }
                    if let Some(w) = seek(&mut neg, m) {
                        score[c] -= w;
                    }
                }
            }
            let (mut best_c, best_s) = if score[cur] < -EPS {
                for &c in &touched {
                    score[c] = 0.0;
                }
                touched.clear();
                dense_best(graph, assign, v, &mut score, &mut touched)
            } else {
                best_of(&score, cur, &touched)
            };
            for &c in &touched {
                score[c] = 0.0;
            }
            touched.clear();
            // A fresh singleton scores 0: strictly better ⇒ split v out.
            if 0.0 > best_s + EPS {
                best_c = next_fresh;
            }
            if best_c != cur {
                if best_c == next_fresh {
                    next_fresh += 1;
                    score.push(0.0);
                    members.head.push(NONE);
                }
                members.remove(v, cur);
                members.insert(v, best_c);
                assign[v] = best_c;
                moves += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    moves
}

/// The running best of an ascending-id scan of `candidates` from `cur`:
/// only a strict improvement by more than `EPS` takes the lead.
fn best_of(score: &[f64], cur: usize, candidates: &[usize]) -> (usize, f64) {
    let (mut best_c, mut best_s) = (cur, score[cur]);
    for &c in candidates {
        if score[c] > best_s + EPS {
            best_c = c;
            best_s = score[c];
        }
    }
    (best_c, best_s)
}

/// [`repair`]'s full scan for node `v`: every edge of `v` scored into the
/// dense per-cluster scratch (one slot per cluster id, zero between
/// nodes) in adjacency order — positive neighbors ascending, then
/// negative ascending. Leaves the scored clusters in `touched` for the
/// caller to zero.
fn dense_best(
    graph: &MatchGraph,
    assign: &[usize],
    v: usize,
    score: &mut [f64],
    touched: &mut Vec<usize>,
) -> (usize, f64) {
    let cur = assign[v];
    for &(u, w) in graph.positive_neighbors(v) {
        score[assign[u]] += w;
        touched.push(assign[u]);
    }
    for &(u, w) in graph.negative_neighbors(v) {
        score[assign[u]] -= w;
        touched.push(assign[u]);
    }
    // The running best never drops below `score[cur]`, so only clusters
    // strictly above it can ever take the lead: scan those.
    let mut better: Vec<usize> = touched
        .iter()
        .copied()
        .filter(|&c| score[c] > score[cur] + EPS)
        .collect();
    better.sort_unstable();
    best_of(score, cur, &better)
}

/// End of a member list.
const NONE: usize = usize::MAX;

/// Every cluster's members as an ascending intrusive list: `head[c]` is
/// the smallest member of cluster `c`, `next[v]` the member after `v`.
/// Two flat vectors, so no cluster owns an allocation.
struct Members {
    head: Vec<usize>,
    next: Vec<usize>,
}

impl Members {
    fn new(assign: &[usize], clusters: usize) -> Self {
        let mut head = vec![NONE; clusters];
        let mut next = vec![NONE; assign.len()];
        for v in (0..assign.len()).rev() {
            next[v] = head[assign[v]];
            head[assign[v]] = v;
        }
        Self { head, next }
    }

    /// Whether `v` is the only member of its cluster `c`.
    fn is_singleton(&self, v: usize, c: usize) -> bool {
        self.head[c] == v && self.next[v] == NONE
    }

    /// Members of cluster `c`, ascending.
    fn of(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |m: usize| (m != NONE).then_some(m);
        std::iter::successors(live(self.head[c]), move |&m| live(self.next[m]))
    }

    fn remove(&mut self, v: usize, c: usize) {
        let (mut prev, mut m) = (NONE, self.head[c]);
        while m != v {
            (prev, m) = (m, self.next[m]);
        }
        self.link(prev, c, self.next[v]);
    }

    fn insert(&mut self, v: usize, c: usize) {
        let (mut prev, mut m) = (NONE, self.head[c]);
        while m != NONE && m < v {
            (prev, m) = (m, self.next[m]);
        }
        self.next[v] = m;
        self.link(prev, c, v);
    }

    /// Point `prev`'s successor (the head of `c` when `prev` is `NONE`)
    /// at `to`.
    fn link(&mut self, prev: usize, c: usize, to: usize) {
        if prev == NONE {
            self.head[c] = to;
        } else {
            self.next[prev] = to;
        }
    }
}

/// The per-node `BTreeMap` formulation [`repair`] replaced, kept as the
/// reference the property test holds it to: identical `assign` vector and
/// move count on every graph (also reports how many rounds made a move).
#[cfg(test)]
fn repair_reference(graph: &MatchGraph, assign: &mut [usize]) -> (u64, usize) {
    let n = graph.rows();
    let (mut moves, mut productive_rounds) = (0u64, 0);
    let mut next_fresh = assign.iter().copied().max().map_or(0, |m| m + 1);
    for _ in 0..MAX_REPAIR_ROUNDS {
        let mut changed = false;
        for v in 0..n {
            let cur = assign[v];
            let mut score = std::collections::BTreeMap::new();
            score.insert(cur, 0.0);
            for &(u, w) in graph.positive_neighbors(v) {
                *score.entry(assign[u]).or_insert(0.0) += w;
            }
            for &(u, w) in graph.negative_neighbors(v) {
                *score.entry(assign[u]).or_insert(0.0) -= w;
            }
            let (mut best_c, mut best_s) = (cur, score[&cur]);
            for (&c, &s) in &score {
                if s > best_s + EPS {
                    best_c = c;
                    best_s = s;
                }
            }
            if 0.0 > best_s + EPS {
                best_c = next_fresh;
            }
            if best_c != cur {
                if best_c == next_fresh {
                    next_fresh += 1;
                }
                assign[v] = best_c;
                moves += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        productive_rounds += 1;
    }
    (moves, productive_rounds)
}

/// Canonicalize an assignment vector into the partition contract shared
/// with [`UnionFind::clusters_with_map`]: clusters ordered by smallest
/// member, members ascending (first-seen order over ascending nodes *is*
/// smallest-member order).
pub(crate) fn canonical_partition(assign: &[usize]) -> Vec<Vec<usize>> {
    // Cluster ids are dense (below the repair's next fresh id), so a slot
    // vector maps them.
    let mut slot = vec![NONE; assign.iter().max().map_or(0, |&m| m + 1)];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (v, &a) in assign.iter().enumerate() {
        if slot[a] == NONE {
            slot[a] = clusters.len();
            clusters.push(Vec::new());
        }
        clusters[slot[a]].push(v);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{
        inconsistent_triangles_by_negative_edge, random_signed_graph, MatchGraphBuilder,
    };
    use probdedup_core::PairDecision;
    use probdedup_decision::MatchClass;

    fn graph(rows: usize, edges: &[(usize, usize, f64, MatchClass)]) -> MatchGraph {
        let mut b = MatchGraphBuilder::new(rows);
        for &(i, j, similarity, class) in edges {
            b.add_decision(&PairDecision {
                pair: (i, j),
                similarity,
                class,
            });
        }
        b.finish()
    }

    #[test]
    fn components_cover_all_nodes() {
        let g = graph(
            5,
            &[
                (0, 1, 0.9, MatchClass::Match),
                (1, 2, 0.9, MatchClass::Match),
                (3, 4, 0.2, MatchClass::NonMatch),
            ],
        );
        assert_eq!(components(&g), vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn greedy_pivot_breaks_chains_through_assigned_nodes() {
        // 0≈1, 1≈2 but 0 and 2 never compared: pivot 0 takes {0, 1},
        // leaving 2 to pivot alone — unlike transitive closure.
        let g = graph(
            3,
            &[
                (0, 1, 0.9, MatchClass::Match),
                (1, 2, 0.9, MatchClass::Match),
            ],
        );
        let assign = greedy_pivot(&g);
        assert_eq!(canonical_partition(&assign), vec![vec![0, 1], vec![2]]);
        assert_eq!(components(&g), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn repair_splits_a_weakly_attached_node() {
        // 0≈1 weakly (0.55) while 0≉2 and 0≉3 strongly; 1≈2≈3 strongly.
        // Greedy pivots {0, 1}, {2, 3}; repair moves 1 over to {2, 3}
        // (net 1.8 beats 0.55) leaving 0 alone.
        let g = graph(
            4,
            &[
                (0, 1, 0.55, MatchClass::Match),
                (1, 2, 0.9, MatchClass::Match),
                (1, 3, 0.9, MatchClass::Match),
                (2, 3, 0.9, MatchClass::Match),
                (0, 2, 0.1, MatchClass::NonMatch),
                (0, 3, 0.1, MatchClass::NonMatch),
            ],
        );
        let mut assign = greedy_pivot(&g);
        assert_eq!(canonical_partition(&assign), vec![vec![0, 1], vec![2, 3]]);
        let moves = repair(&g, &mut assign);
        assert!(moves >= 1);
        assert_eq!(canonical_partition(&assign), vec![vec![0], vec![1, 2, 3]]);
    }

    #[test]
    fn repair_is_a_fixed_point_on_consistent_graphs() {
        let g = graph(
            4,
            &[
                (0, 1, 0.9, MatchClass::Match),
                (2, 3, 0.9, MatchClass::Match),
                (0, 2, 0.1, MatchClass::NonMatch),
            ],
        );
        let mut assign = greedy_pivot(&g);
        let before = canonical_partition(&assign);
        assert_eq!(repair(&g, &mut assign), 0);
        assert_eq!(canonical_partition(&assign), before);
    }

    /// The candidate-cluster `repair` is the `BTreeMap` reference, move
    /// for move: random signed graphs, from the greedy start and from a
    /// scrambled one — some of which keep moving after the first sweep,
    /// and some of which start with a row that has no Match edge alone in
    /// its cluster (the rows `repair` skips).
    #[test]
    fn repair_equals_the_btreemap_reference() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0x5EED_2010);
        let mut draw = |bound: u64| (rng.next_u64() % bound) as usize;
        let (mut late_moves, mut isolated_singletons) = (0, 0);
        for _ in 0..300 {
            let (n, edges) = random_signed_graph(&mut draw);
            let g = graph(n, &edges);
            let k = 1 + draw(5);
            let scrambled: Vec<usize> = (0..n).map(|v| (v * 7 + 3) % k).collect();
            for start in [greedy_pivot(&g), scrambled] {
                isolated_singletons += usize::from((0..n).any(|v| {
                    g.positive_neighbors(v).is_empty()
                        && start.iter().filter(|&&c| c == start[v]).count() == 1
                }));
                let (mut fast, mut reference) = (start.clone(), start);
                let moves = repair(&g, &mut fast);
                let (ref_moves, productive_rounds) = repair_reference(&g, &mut reference);
                assert_eq!(moves, ref_moves, "n={n} edges={edges:?}");
                assert_eq!(fast, reference, "n={n} edges={edges:?}");
                late_moves += usize::from(productive_rounds > 1);
            }
        }
        assert!(
            late_moves > 20,
            "only {late_moves} searches moved after round 1"
        );
        assert!(
            isolated_singletons > 0,
            "no search started with an isolated singleton"
        );
    }

    /// A row netting below `−EPS` where it sits moves, and a cluster it
    /// reaches only through a zero-weight NonMatch edge (similarity 1.0)
    /// scores 0 — not below the fresh singleton, and ahead of it by id.
    /// Only the full scan sees that cluster: row 2 must join row 3.
    #[test]
    fn a_row_below_zero_joins_a_cluster_reached_only_by_a_zero_weight_nonmatch() {
        let g = graph(
            4,
            &[
                (0, 1, 0.9, MatchClass::Match),
                (0, 2, 0.1, MatchClass::NonMatch),
                (1, 2, 0.1, MatchClass::NonMatch),
                (2, 3, 1.0, MatchClass::NonMatch),
            ],
        );
        let start = vec![0, 0, 0, 1];
        let (mut fast, mut reference) = (start.clone(), start);
        let moves = repair(&g, &mut fast);
        assert_eq!(moves, repair_reference(&g, &mut reference).0);
        assert_eq!(fast, reference);
        assert_eq!(moves, 1);
        assert_eq!(fast, vec![0, 0, 1, 1]);
    }

    /// The Match-wedge triangle count is the per-NonMatch-edge
    /// intersection count it replaced, on the random signed graphs of
    /// `repair_equals_the_btreemap_reference`.
    #[test]
    fn wedge_triangle_count_equals_the_negative_edge_oracle() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0x5EED_2010);
        let mut draw = |bound: u64| (rng.next_u64() % bound) as usize;
        let mut with_triangles = 0;
        for _ in 0..300 {
            let (n, edges) = random_signed_graph(&mut draw);
            let g = graph(n, &edges);
            let expected = inconsistent_triangles_by_negative_edge(&g);
            assert_eq!(
                g.inconsistent_triangles(),
                expected,
                "n={n} edges={edges:?}"
            );
            with_triangles += usize::from(expected > 0);
        }
        assert!(
            with_triangles > 100,
            "only {with_triangles} graphs had an inconsistent triangle"
        );
    }

    #[test]
    fn canonical_partition_orders_by_smallest_member() {
        assert_eq!(
            canonical_partition(&[9, 4, 9, 7]),
            vec![vec![0, 2], vec![1], vec![3]]
        );
        assert_eq!(canonical_partition(&[]), Vec::<Vec<usize>>::new());
    }
}

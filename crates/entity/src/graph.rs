//! The match graph: pairwise verdicts as a signed, similarity-weighted
//! graph over the combined relation's row indices.
//!
//! Built *streaming* — decisions are pushed one at a time in any order —
//! and canonicalized on [`finish`](MatchGraphBuilder::finish) (adjacency
//! sorted by neighbor), so the graph, and everything clustered from it,
//! is invariant under the pair order of the input.

use probdedup_core::PairDecision;
use probdedup_decision::MatchClass;

/// Agreement weight of a decision: its similarity clamped to `[0, 1]`
/// (the standard pipeline models already emit normalized degrees; a
/// non-normalized matching weight saturates at full agreement).
fn agreement(similarity: f64) -> f64 {
    if similarity.is_nan() {
        0.5
    } else {
        similarity.clamp(0.0, 1.0)
    }
}

/// Streaming builder for a [`MatchGraph`] over `rows` nodes.
#[derive(Debug, Clone)]
pub struct MatchGraphBuilder {
    pos: Vec<Vec<(usize, f64)>>,
    neg: Vec<Vec<(usize, f64)>>,
    possible: Vec<(usize, usize, f64)>,
}

impl MatchGraphBuilder {
    /// An empty graph over `rows` nodes.
    pub fn new(rows: usize) -> Self {
        Self {
            pos: vec![Vec::new(); rows],
            neg: vec![Vec::new(); rows],
            possible: Vec::new(),
        }
    }

    /// Add one pairwise verdict. `Match` becomes a positive edge weighted
    /// by the similarity, `NonMatch` a negative edge weighted by
    /// `1 − similarity` (a confident non-match repels strongly), and
    /// `Possible` is kept separately — the clerical-review band does not
    /// cluster (see [`MatchGraph::possible`]).
    pub fn add_decision(&mut self, d: &PairDecision) {
        let (i, j) = d.pair;
        debug_assert!(i < j && j < self.pos.len(), "canonical in-range pair");
        match d.class {
            MatchClass::Match => {
                let w = agreement(d.similarity);
                self.pos[i].push((j, w));
                self.pos[j].push((i, w));
            }
            MatchClass::NonMatch => {
                let w = 1.0 - agreement(d.similarity);
                self.neg[i].push((j, w));
                self.neg[j].push((i, w));
            }
            MatchClass::Possible => self.possible.push((i, j, d.similarity)),
        }
    }

    /// Canonicalize: adjacency sorted by neighbor id, possible edges by
    /// pair. After this the graph carries no trace of insertion order.
    pub fn finish(mut self) -> MatchGraph {
        for adj in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            adj.sort_unstable_by_key(|&(u, _)| u);
        }
        self.possible.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let pos_edges = self.pos.iter().map(Vec::len).sum::<usize>() / 2;
        let neg_edges = self.neg.iter().map(Vec::len).sum::<usize>() / 2;
        MatchGraph {
            pos: self.pos,
            neg: self.neg,
            possible: self.possible,
            pos_edges,
            neg_edges,
        }
    }
}

/// The finished match graph (see [`MatchGraphBuilder`]).
#[derive(Debug, Clone)]
pub struct MatchGraph {
    pos: Vec<Vec<(usize, f64)>>,
    neg: Vec<Vec<(usize, f64)>>,
    possible: Vec<(usize, usize, f64)>,
    pos_edges: usize,
    neg_edges: usize,
}

impl MatchGraph {
    /// Number of nodes (combined-relation rows).
    pub fn rows(&self) -> usize {
        self.pos.len()
    }

    /// Number of Match edges.
    pub fn positive_edge_count(&self) -> usize {
        self.pos_edges
    }

    /// Number of NonMatch edges.
    pub fn negative_edge_count(&self) -> usize {
        self.neg_edges
    }

    /// Positive (Match) neighbors of `v` with their agreement weights,
    /// ascending by neighbor id.
    pub fn positive_neighbors(&self, v: usize) -> &[(usize, f64)] {
        &self.pos[v]
    }

    /// Negative (NonMatch) neighbors of `v` with their repulsion weights,
    /// ascending by neighbor id.
    pub fn negative_neighbors(&self, v: usize) -> &[(usize, f64)] {
        &self.neg[v]
    }

    /// The Possible-band edges `(i, j, similarity)` in canonical pair
    /// order. Deliberately excluded from clustering: the pipeline already
    /// routed them to clerical review, and silently merging (or
    /// splitting) on them would launder that uncertainty away.
    pub fn possible(&self) -> &[(usize, usize, f64)] {
        &self.possible
    }

    /// Number of inconsistent triangles: row triples where two pairs
    /// matched but the closing pair did not (`A≈B, B≈C, A≉C`) — exactly
    /// the configurations transitive closure glosses over and the repair
    /// strategy arbitrates by net weight. Each triangle has exactly one
    /// NonMatch edge and one centre (the row both Match edges share), so
    /// counting the Match wedges `a ≈ centre ≈ b` (`a < b`) whose closing
    /// pair is NonMatch counts each once: one binary search per wedge,
    /// which costs what the Match graph costs, not the NonMatch graph.
    pub fn inconsistent_triangles(&self) -> usize {
        let mut count = 0;
        for pos in &self.pos {
            for (x, &(a, _)) in pos.iter().enumerate() {
                let mut neg = self.neg[a].as_slice();
                for &(b, _) in &pos[x + 1..] {
                    count += usize::from(seek(&mut neg, b).is_some());
                }
            }
        }
        count
    }
}

/// Advance a cursor over an adjacency list sorted by neighbor id to
/// neighbor `u`: the weight of edge `u` if the list has one. The cursor
/// moves past everything below `u` (and past `u` itself when found), so
/// ascending lookups walk the list once.
pub(crate) fn seek(adj: &mut &[(usize, f64)], u: usize) -> Option<f64> {
    match adj.binary_search_by_key(&u, |&(v, _)| v) {
        Ok(i) => {
            let w = adj[i].1;
            *adj = &adj[i + 1..];
            Some(w)
        }
        Err(i) => {
            *adj = &adj[i..];
            None
        }
    }
}

/// The per-NonMatch-edge count [`MatchGraph::inconsistent_triangles`]
/// replaced — one sorted intersection of the endpoints' Match lists per
/// negative edge — kept as the oracle the wedge count is tested against.
#[cfg(test)]
pub(crate) fn inconsistent_triangles_by_negative_edge(g: &MatchGraph) -> usize {
    let mut count = 0;
    for a in 0..g.rows() {
        for &(b, _) in &g.neg[a] {
            if b <= a {
                continue;
            }
            count += sorted_intersection_len(&g.pos[a], &g.pos[b]);
        }
    }
    count
}

/// Size of the intersection of two neighbor lists sorted by id.
#[cfg(test)]
fn sorted_intersection_len(a: &[(usize, f64)], b: &[(usize, f64)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(pair: (usize, usize), similarity: f64, class: MatchClass) -> PairDecision {
        PairDecision {
            pair,
            similarity,
            class,
        }
    }

    fn graph(rows: usize, decisions: &[PairDecision]) -> MatchGraph {
        let mut b = MatchGraphBuilder::new(rows);
        for d in decisions {
            b.add_decision(d);
        }
        b.finish()
    }

    #[test]
    fn edges_land_in_their_bands() {
        let g = graph(
            4,
            &[
                decision((0, 1), 0.9, MatchClass::Match),
                decision((1, 2), 0.3, MatchClass::NonMatch),
                decision((2, 3), 0.7, MatchClass::Possible),
            ],
        );
        assert_eq!(g.positive_edge_count(), 1);
        assert_eq!(g.negative_edge_count(), 1);
        assert_eq!(g.possible(), &[(2, 3, 0.7)]);
        assert_eq!(g.positive_neighbors(0), &[(1, 0.9)]);
        assert_eq!(g.positive_neighbors(1), &[(0, 0.9)]);
        // NonMatch weight is 1 − similarity.
        assert_eq!(g.negative_neighbors(1), &[(2, 0.7)]);
        assert!(g.positive_neighbors(3).is_empty());
    }

    #[test]
    fn finish_is_invariant_under_insertion_order() {
        let decisions = [
            decision((0, 1), 0.9, MatchClass::Match),
            decision((0, 2), 0.8, MatchClass::Match),
            decision((1, 2), 0.2, MatchClass::NonMatch),
            decision((2, 3), 0.7, MatchClass::Possible),
            decision((0, 3), 0.75, MatchClass::Possible),
        ];
        let forward = graph(4, &decisions);
        let mut reversed = decisions;
        reversed.reverse();
        let backward = graph(4, &reversed);
        for v in 0..4 {
            assert_eq!(
                forward.positive_neighbors(v),
                backward.positive_neighbors(v)
            );
            assert_eq!(
                forward.negative_neighbors(v),
                backward.negative_neighbors(v)
            );
        }
        assert_eq!(forward.possible(), backward.possible());
    }

    #[test]
    fn triangle_counting_counts_each_once() {
        // 0≈1, 1≈2, 0≉2: one inconsistent triangle.
        let g = graph(
            3,
            &[
                decision((0, 1), 0.9, MatchClass::Match),
                decision((1, 2), 0.85, MatchClass::Match),
                decision((0, 2), 0.1, MatchClass::NonMatch),
            ],
        );
        assert_eq!(g.inconsistent_triangles(), 1);
        // A consistent triangle has none.
        let g = graph(
            3,
            &[
                decision((0, 1), 0.9, MatchClass::Match),
                decision((1, 2), 0.85, MatchClass::Match),
                decision((0, 2), 0.8, MatchClass::Match),
            ],
        );
        assert_eq!(g.inconsistent_triangles(), 0);
    }

    #[test]
    fn weights_are_clamped() {
        let g = graph(
            2,
            &[decision((0, 1), 7.5, MatchClass::Match)], // matching weight > 1
        );
        assert_eq!(g.positive_neighbors(0), &[(1, 1.0)]);
    }
}

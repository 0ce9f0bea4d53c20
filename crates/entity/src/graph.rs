//! The match graph: pairwise verdicts as a signed, similarity-weighted
//! graph over the combined relation's row indices.
//!
//! Each sign is one CSR: per-row offsets into a flat edge array, every
//! row ascending by neighbour. The build reads the decisions twice and
//! sorts nothing — the first read counts degrees, the second writes the
//! edges into place — and the graph, and everything clustered from it, is
//! invariant under the pair order of the input.

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

/// Sign indices: a graph holds one [`Csr`] per sign, `[NEG, POS]`.
const NEG: usize = 0;
const POS: usize = 1;

/// The edge a decision adds, as its sign and weight (see
/// [`MatchGraphBuilder::add_decision`]); `Possible` adds none.
fn signed_edge(d: &PairDecision) -> Option<(usize, f64)> {
    match d.class {
        MatchClass::Match => Some((POS, agreement(d.similarity))),
        MatchClass::NonMatch => Some((NEG, 1.0 - agreement(d.similarity))),
        MatchClass::Possible => None,
    }
}

/// Builder for a [`MatchGraph`] over `rows` nodes: decisions are pushed
/// one at a time in any order and built into the graph on
/// [`finish`](Self::finish).
#[derive(Debug, Clone)]
pub struct MatchGraphBuilder {
    rows: usize,
    decisions: Vec<PairDecision>,
}

impl MatchGraphBuilder {
    /// An empty graph over `rows` nodes.
    pub fn new(rows: usize) -> Self {
        Self {
            rows,
            decisions: Vec::new(),
        }
    }

    /// Add one pairwise verdict. `Match` becomes a positive edge weighted
    /// by the similarity, `NonMatch` a negative edge weighted by
    /// `1 − similarity` (a confident non-match repels strongly), and
    /// `Possible` is kept separately — the clerical-review band does not
    /// cluster (see [`MatchGraph::possible`]).
    pub fn add_decision(&mut self, d: &PairDecision) {
        self.decisions.push(*d);
    }

    /// Build the graph. It carries no trace of insertion order.
    pub fn finish(self) -> MatchGraph {
        build(self.rows, || self.decisions.iter().copied())
    }
}

/// Build the match graph of the decisions `decisions()` yields over
/// `rows` nodes, reading them twice and storing none.
///
/// The first read counts both signs' degrees, collects the Possible edges
/// and checks whether every row receives its neighbours in ascending
/// order, with one last-neighbour slot per row. The second writes the
/// edges: straight into place when they do (ascending pairs, a one-shot
/// full comparison's order, and a full-comparison session's memo, grown
/// batch by batch in that order), else through
/// [`Csr::fill_from_lower_halves`].
pub(crate) fn build<I>(rows: usize, decisions: impl Fn() -> I) -> MatchGraph
where
    I: Iterator<Item = PairDecision>,
{
    // Row `v`'s degree lands in `degrees[sign][v + 1]`, summed into the
    // offsets by `Csr::with_degrees`.
    let mut degrees = [vec![0; rows + 1], vec![0; rows + 1]];
    let mut possible = Vec::new();
    // One past the last neighbour row `v` received, over both signs.
    let mut next = vec![0; rows];
    let mut ascending = true;
    for d in decisions() {
        let (i, j) = d.pair;
        debug_assert!(i < j && j < rows, "canonical in-range pair");
        match signed_edge(&d) {
            Some((sign, _)) => {
                degrees[sign][i + 1] += 1;
                degrees[sign][j + 1] += 1;
                ascending &= next[i] <= j && next[j] <= i;
                next[i] = j + 1;
                next[j] = i + 1;
            }
            None => possible.push((i, j, d.similarity)),
        }
    }
    drop(next);
    possible.sort_unstable_by_key(|&(i, j, _)| (i, j));
    let mut signs = degrees.map(Csr::with_degrees);
    let mut at = signs.each_ref().map(Csr::row_starts);
    for d in decisions() {
        let Some((sign, w)) = signed_edge(&d) else {
            continue;
        };
        let ((i, j), g, at) = (d.pair, &mut signs[sign], &mut at[sign]);
        // Every row received its neighbours ascending: arrival order is
        // neighbour order.
        if ascending {
            g.edges[at[i]] = (j, w);
            at[i] += 1;
        }
        g.edges[at[j]] = (i, w);
        at[j] += 1;
    }
    if !ascending {
        for (g, at) in signs.iter_mut().zip(at) {
            g.fill_from_lower_halves(at);
        }
    }
    let [neg, pos] = signs;
    MatchGraph { pos, neg, possible }
}

/// One sign's adjacency in compressed sparse rows: row `v`'s edges are
/// `edges[offsets[v]..offsets[v + 1]]`, ascending by neighbour.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    edges: Vec<(usize, f64)>,
}

impl Csr {
    /// Rows sized by `degrees` (row `v`'s in `degrees[v + 1]`,
    /// `degrees[0] == 0`), summed in place into the offsets; edges zero.
    fn with_degrees(mut offsets: Vec<usize>) -> Self {
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        let edges = vec![(0, 0.0); offsets[offsets.len() - 1]];
        Self { offsets, edges }
    }

    /// Each row's first slot: one write cursor per row.
    fn row_starts(&self) -> Vec<usize> {
        self.offsets[..self.offsets.len() - 1].to_vec()
    }

    fn row(&self, v: usize) -> &[(usize, f64)] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Finish a sign whose every pair `(i, j)` was written once, as
    /// `(i, w)` into row `j`, in arrival order, up to `at[j]`. Two stable
    /// counting passes, each one read of the edges and no scratch array:
    /// the rows' lower halves (neighbours below the row), read by
    /// ascending row, write the upper halves (neighbours above) in
    /// ascending neighbour order; then the upper halves, read the same
    /// way, rewrite the lower halves in ascending order.
    fn fill_from_lower_halves(&mut self, mut at: Vec<usize>) {
        let rows = at.len();
        // `at[i]` moves only while a row above `i` is read, so it still
        // ends row `j`'s lower half when row `j` is read.
        for j in 0..rows {
            for k in self.offsets[j]..at[j] {
                let (i, w) = self.edges[k];
                self.edges[at[i]] = (j, w);
                at[i] += 1;
            }
        }
        at.copy_from_slice(&self.offsets[..rows]);
        // `at[j]` moves only while a row below `j` is read, so it already
        // ends row `i`'s rewritten lower half when row `i` is read.
        for i in 0..rows {
            for k in at[i]..self.offsets[i + 1] {
                let (j, w) = self.edges[k];
                self.edges[at[j]] = (i, w);
                at[j] += 1;
            }
        }
    }
}

/// The finished match graph (see [`MatchGraphBuilder`]).
#[derive(Debug, Clone)]
pub struct MatchGraph {
    pos: Csr,
    neg: Csr,
    possible: Vec<(usize, usize, f64)>,
}

impl MatchGraph {
    /// Number of nodes (combined-relation rows).
    pub fn rows(&self) -> usize {
        self.pos.offsets.len() - 1
    }

    /// Number of Match edges.
    pub fn positive_edge_count(&self) -> usize {
        self.pos.edges.len() / 2
    }

    /// Number of NonMatch edges.
    pub fn negative_edge_count(&self) -> usize {
        self.neg.edges.len() / 2
    }

    /// Positive (Match) neighbors of `v` with their agreement weights,
    /// ascending by neighbor id.
    pub fn positive_neighbors(&self, v: usize) -> &[(usize, f64)] {
        self.pos.row(v)
    }

    /// Negative (NonMatch) neighbors of `v` with their repulsion weights,
    /// ascending by neighbor id.
    pub fn negative_neighbors(&self, v: usize) -> &[(usize, f64)] {
        self.neg.row(v)
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
        for v in 0..self.rows() {
            let pos = self.positive_neighbors(v);
            for (x, &(a, _)) in pos.iter().enumerate() {
                let mut neg = self.negative_neighbors(a);
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
        for &(b, _) in g.negative_neighbors(a) {
            if b <= a {
                continue;
            }
            count += sorted_intersection_len(g.positive_neighbors(a), g.positive_neighbors(b));
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

/// The per-row build [`build`] replaced — a `Vec` per row per sign,
/// each sorted by neighbour once every decision is in — kept as the
/// oracle the CSR build is tested against.
#[cfg(test)]
struct RowSortedGraph {
    pos: Vec<Vec<(usize, f64)>>,
    neg: Vec<Vec<(usize, f64)>>,
    possible: Vec<(usize, usize, f64)>,
}

#[cfg(test)]
impl RowSortedGraph {
    fn build(rows: usize, decisions: &[PairDecision]) -> Self {
        let mut signs = [vec![Vec::new(); rows], vec![Vec::new(); rows]];
        let mut possible = Vec::new();
        for d in decisions {
            let (i, j) = d.pair;
            match signed_edge(d) {
                Some((sign, w)) => {
                    signs[sign][i].push((j, w));
                    signs[sign][j].push((i, w));
                }
                None => possible.push((i, j, d.similarity)),
            }
        }
        for adj in signs.iter_mut().flatten() {
            adj.sort_unstable_by_key(|&(u, _)| u);
        }
        possible.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let [neg, pos] = signs;
        Self { pos, neg, possible }
    }
}

/// Weights chosen to collide: exact ties, scores within `EPS` of each
/// other, and `NonMatch` at similarity 1.0 (a zero-weight negative edge
/// that still makes its cluster a scored neighbor).
#[cfg(test)]
const PALETTE: [f64; 7] = [0.0, 0.1, 0.5, 0.5 + 1e-13, 0.5 - 1e-13, 0.9, 1.0];

/// A random signed graph over `2..28` rows, sparse to complete (so
/// negative neighborhoods get dense), weights from [`PALETTE`], edges in
/// row-major (ascending pair) order.
#[cfg(test)]
pub(crate) fn random_signed_graph(
    draw: &mut impl FnMut(u64) -> usize,
) -> (usize, Vec<(usize, usize, f64, MatchClass)>) {
    let n = 2 + draw(26);
    let density = 1 + draw(8);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if draw(8) < density {
                let class = [
                    MatchClass::Match,
                    MatchClass::NonMatch,
                    MatchClass::Possible,
                ][draw(3)];
                edges.push((i, j, PALETTE[draw(PALETTE.len() as u64)], class));
            }
        }
    }
    (n, edges)
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

    /// The CSR graph equals the per-row-sort reference — every row's two
    /// slices, the Possible edges and both edge counts — on random signed
    /// graphs fed in orders that give every row its neighbours ascending
    /// (the in-place scatter): row-major, column-major, and row-major
    /// followed by batches of new rows in full-comparison delta order; and
    /// in orders that do not (the two counting passes): reversed and
    /// shuffled; and on edgeless graphs.
    #[test]
    fn csr_build_equals_the_row_sort_reference() {
        fn check(rows: usize, decisions: &[PairDecision]) {
            let g = build(rows, || decisions.iter().copied());
            let r = RowSortedGraph::build(rows, decisions);
            assert_eq!(g.rows(), rows);
            for v in 0..rows {
                assert_eq!(g.positive_neighbors(v), r.pos[v], "row {v} of {rows}");
                assert_eq!(g.negative_neighbors(v), r.neg[v], "row {v} of {rows}");
            }
            assert_eq!(g.possible(), r.possible);
            let half_edges = |adj: &[Vec<_>]| adj.iter().map(Vec::len).sum::<usize>() / 2;
            assert_eq!(g.positive_edge_count(), half_edges(&r.pos));
            assert_eq!(g.negative_edge_count(), half_edges(&r.neg));
        }
        check(0, &[]);
        check(6, &[]);
        check(3, &[decision((0, 2), 0.7, MatchClass::Possible)]);
        let mut rng = proptest::test_runner::TestRng::from_seed(0x5EED_2041);
        let mut draw = |bound: u64| (rng.next_u64() % bound) as usize;
        for _ in 0..300 {
            let (n, edges) = random_signed_graph(&mut draw);
            let mut decisions: Vec<PairDecision> = edges
                .iter()
                .map(|&(i, j, similarity, class)| decision((i, j), similarity, class))
                .collect();
            check(n, &decisions);
            decisions.sort_unstable_by_key(|d| (d.pair.1, d.pair.0));
            check(n, &decisions);
            // Rows `0..starts[0]` in one run, then each batch of rows
            // `starts[b]..starts[b + 1]` against everything before it and
            // itself, row-major (`CandidateDelta::full`).
            let mut starts: Vec<usize> = (0..draw(4)).map(|_| draw(n as u64)).collect();
            starts.sort_unstable();
            decisions.sort_unstable_by_key(|d| {
                let batch = starts.partition_point(|&s| s <= d.pair.1);
                (batch, d.pair)
            });
            check(n, &decisions);
            decisions.reverse();
            check(n, &decisions);
            for k in (1..decisions.len()).rev() {
                decisions.swap(k, draw(k as u64 + 1));
            }
            check(n, &decisions);
        }
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

//! Union-find for transitive closure of matches: the final merge step of
//! entity resolution (the paper cites the merge/purge formulation \[19\]).

/// Disjoint-set forest with path compression and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// All clusters of size ≥ `min_size`, each sorted ascending; clusters
    /// ordered by their smallest member (deterministic).
    ///
    /// Two passes over the elements: the first sizes every component at
    /// its root, the second allocates each kept cluster once, at its exact
    /// size, when its smallest member comes by. A dropped component costs
    /// no allocation.
    pub fn clusters(&mut self, min_size: usize) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut size = vec![0usize; n];
        for x in 0..n {
            let r = self.find(x);
            size[r] += 1;
        }
        // Every path is compressed now: `parent[x]` is `x`'s root.
        let mut slot = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for x in 0..n {
            let r = self.parent[x];
            if size[r] < min_size {
                continue;
            }
            if slot[r] == usize::MAX {
                slot[r] = clusters.len();
                clusters.push(Vec::with_capacity(size[r]));
            }
            clusters[slot[r]].push(x);
        }
        clusters
    }

    /// Every cluster (singletons included) plus the cluster index of each
    /// element, in one pass over the elements.
    ///
    /// Clusters are ordered by their smallest member and each is sorted
    /// ascending — the same deterministic contract as
    /// [`clusters`](Self::clusters), but without a per-cluster sort or a
    /// second find pass: visiting elements in ascending order means each
    /// root's first appearance *is* its smallest member, so first-seen
    /// order and smallest-member order coincide.
    pub fn clusters_with_map(&mut self) -> (Vec<Vec<usize>>, Vec<usize>) {
        let n = self.len();
        // root -> cluster slot, assigned in first-seen (= smallest-member)
        // order.
        let mut slot = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut map = vec![0usize; n];
        for (x, m) in map.iter_mut().enumerate() {
            let r = self.find(x);
            let s = if slot[r] == usize::MAX {
                slot[r] = clusters.len();
                clusters.push(Vec::new());
                slot[r]
            } else {
                slot[r]
            };
            clusters[s].push(x);
            *m = s;
        }
        (clusters, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitive_closure() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        let clusters = uf.clusters(2);
        assert_eq!(clusters, vec![vec![0, 1, 2]]);
        let all = uf.clusters(1);
        assert_eq!(all, vec![vec![0, 1, 2], vec![3], vec![4], vec![5]]);
    }

    #[test]
    fn equivalence_relation_laws() {
        let mut uf = UnionFind::new(10);
        for (a, b) in [(0, 5), (5, 9), (2, 3)] {
            uf.union(a, b);
        }
        // Reflexive.
        for x in 0..10 {
            assert!(uf.connected(x, x));
        }
        // Symmetric.
        assert_eq!(uf.connected(0, 9), uf.connected(9, 0));
        // Transitive.
        assert!(uf.connected(0, 9));
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.clusters(1).is_empty());
    }

    #[test]
    fn clusters_with_map_is_consistent_with_clusters() {
        let mut uf = UnionFind::new(8);
        for (a, b) in [(7, 2), (2, 4), (1, 6), (0, 3)] {
            uf.union(a, b);
        }
        let (clusters, map) = uf.clusters_with_map();
        // Singletons included; smallest-member order; members ascending.
        assert_eq!(
            clusters,
            vec![vec![0, 3], vec![1, 6], vec![2, 4, 7], vec![5]]
        );
        // The map agrees with membership.
        assert_eq!(map.len(), 8);
        for (i, cluster) in clusters.iter().enumerate() {
            for &x in cluster {
                assert_eq!(map[x], i, "element {x}");
            }
        }
        // clusters(min_size) is the filtered view of the same partition.
        assert_eq!(uf.clusters(2), vec![vec![0, 3], vec![1, 6], vec![2, 4, 7]]);
        assert_eq!(uf.clusters(1).len(), 4);
        assert_eq!(uf.clusters(4), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn clusters_with_map_on_empty_structure() {
        let mut uf = UnionFind::new(0);
        let (clusters, map) = uf.clusters_with_map();
        assert!(clusters.is_empty());
        assert!(map.is_empty());
    }

    /// `clusters(min_size)` is `clusters_with_map` filtered by size, on
    /// random forests from empty to fully merged, for `min_size` 0–4.
    #[test]
    fn clusters_equal_the_filtered_full_partition() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0xC105_7E25);
        let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        for _ in 0..300 {
            let n = draw(40);
            let mut uf = UnionFind::new(n);
            for _ in 0..draw(2 * n + 1) {
                uf.union(draw(n), draw(n));
            }
            let (all, _) = uf.clone().clusters_with_map();
            for min_size in 0..=4 {
                let want: Vec<Vec<usize>> = all
                    .iter()
                    .filter(|c| c.len() >= min_size)
                    .cloned()
                    .collect();
                assert_eq!(
                    uf.clone().clusters(min_size),
                    want,
                    "{n} rows, ≥ {min_size}"
                );
            }
        }
    }

    #[test]
    fn deep_chain_compresses() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, n - 1));
        assert_eq!(uf.clusters(2).len(), 1);
        assert_eq!(uf.clusters(2)[0].len(), n);
    }
}

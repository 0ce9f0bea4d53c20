//! Cluster-level quality metrics: score a predicted entity partition
//! against a ground-truth partition, beyond what pairwise verdict
//! counting can see.
//!
//! Both partitions use the pipeline's deterministic contract — every row
//! of a universe `0..n` in exactly one cluster, clusters ordered by
//! smallest member, members ascending (`UnionFind::clusters_with_map`,
//! `GroundTruth::true_clusters`, entity resolutions all emit it).

use std::collections::HashMap;

use crate::confusion::ConfusionCounts;
use crate::metrics::EffectivenessMetrics;

/// How many clusters have each size, smallest size first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SizeHistogram {
    /// `(cluster_size, cluster_count)` pairs, ascending by size.
    pub buckets: Vec<(usize, usize)>,
}

impl SizeHistogram {
    /// Histogram of a partition's cluster sizes.
    pub fn from_partition(partition: &[Vec<usize>]) -> Self {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for cluster in partition {
            *counts.entry(cluster.len()).or_insert(0) += 1;
        }
        let mut buckets: Vec<(usize, usize)> = counts.into_iter().collect();
        buckets.sort_unstable();
        Self { buckets }
    }

    /// Number of clusters counted.
    pub fn clusters(&self) -> usize {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }
}

impl std::fmt::Display for SizeHistogram {
    /// `1×12 2×5 3×1` — size×count pairs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (size, count)) in self.buckets.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{size}×{count}")?;
        }
        Ok(())
    }
}

/// Cluster-level comparison of a predicted partition against truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Pairwise effectiveness over co-cluster pairs: a pair counts as
    /// predicted (resp. true) duplicate iff both rows share a predicted
    /// (resp. true) cluster. The standard pairwise precision/recall/F1 of
    /// the clustering literature.
    pub pairwise: EffectivenessMetrics,
    /// Closest-cluster F1: for each truth cluster, the best F1 any single
    /// predicted cluster achieves against it (precision in the predicted
    /// cluster, recall in the truth cluster), averaged over truth
    /// clusters. Punishes both shattering and gluing; 1.0 iff the
    /// partitions are identical on every truth cluster.
    pub closest_cluster_f1: f64,
    /// Number of predicted clusters.
    pub predicted_clusters: usize,
    /// Number of truth clusters.
    pub truth_clusters: usize,
    /// Size histogram of the predicted partition.
    pub predicted_sizes: SizeHistogram,
    /// Size histogram of the truth partition.
    pub truth_sizes: SizeHistogram,
}

impl ClusterMetrics {
    /// Score `predicted` against `truth` over the universe `0..n`. Both
    /// must partition exactly the rows `0..n` (the shared partition
    /// contract); rows outside the universe panic in debug builds.
    ///
    /// Runs in `O(n + Σ|cluster|)`: pairwise counts come from the joint
    /// (predicted, truth) cluster-id contingency counts — no pair set is
    /// materialized.
    pub fn from_partitions(predicted: &[Vec<usize>], truth: &[Vec<usize>], n: usize) -> Self {
        let pred_of = cluster_index(predicted, n);
        let truth_of = cluster_index(truth, n);

        // Joint contingency counts: |predicted cluster ∩ truth cluster|.
        let mut joint: HashMap<(usize, usize), u64> = HashMap::new();
        for row in 0..n {
            *joint.entry((pred_of[row], truth_of[row])).or_insert(0) += 1;
        }
        let choose2 = |k: u64| k * k.saturating_sub(1) / 2;
        let tp: u64 = joint.values().map(|&k| choose2(k)).sum();
        let predicted_pairs: u64 = predicted.iter().map(|c| choose2(c.len() as u64)).sum();
        let truth_pairs: u64 = truth.iter().map(|c| choose2(c.len() as u64)).sum();
        let total = choose2(n as u64);
        let fp = predicted_pairs - tp;
        let fn_ = truth_pairs - tp;
        let counts = ConfusionCounts {
            tp,
            fp,
            fn_,
            tn: total - tp - fp - fn_,
        };

        // Closest-cluster F1 per truth cluster, from the same joint
        // counts regrouped by truth cluster.
        let mut overlaps: Vec<Vec<(usize, u64)>> = vec![Vec::new(); truth.len()];
        for (&(p, t), &k) in &joint {
            overlaps[t].push((p, k));
        }
        let closest_cluster_f1 = if truth.is_empty() {
            1.0 // vacuously perfect, matching the 0/0 convention
        } else {
            truth
                .iter()
                .enumerate()
                .map(|(t, t_rows)| {
                    overlaps[t]
                        .iter()
                        .map(|&(p, k)| {
                            let precision = k as f64 / predicted[p].len() as f64;
                            let recall = k as f64 / t_rows.len() as f64;
                            2.0 * precision * recall / (precision + recall)
                        })
                        .fold(0.0, f64::max)
                })
                .sum::<f64>()
                / truth.len() as f64
        };

        Self {
            pairwise: EffectivenessMetrics::from_counts(&counts),
            closest_cluster_f1,
            predicted_clusters: predicted.len(),
            truth_clusters: truth.len(),
            predicted_sizes: SizeHistogram::from_partition(predicted),
            truth_sizes: SizeHistogram::from_partition(truth),
        }
    }
}

impl std::fmt::Display for ClusterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pairwise {} | ccF1={:.3} | clusters {} vs {} true | sizes [{}] vs [{}]",
            self.pairwise,
            self.closest_cluster_f1,
            self.predicted_clusters,
            self.truth_clusters,
            self.predicted_sizes,
            self.truth_sizes,
        )
    }
}

/// Invert a partition into a cluster-index-per-row vector.
fn cluster_index(partition: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut of = vec![usize::MAX; n];
    for (i, cluster) in partition.iter().enumerate() {
        for &row in cluster {
            debug_assert!(row < n, "partition row {row} outside universe {n}");
            of[row] = i;
        }
    }
    debug_assert!(
        of.iter().all(|&i| i != usize::MAX),
        "partition does not cover the universe"
    );
    of
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_are_perfect() {
        let p = vec![vec![0, 1, 2], vec![3], vec![4, 5]];
        let m = ClusterMetrics::from_partitions(&p, &p, 6);
        assert_eq!(m.pairwise.precision, 1.0);
        assert_eq!(m.pairwise.recall, 1.0);
        assert_eq!(m.pairwise.f1, 1.0);
        assert_eq!(m.closest_cluster_f1, 1.0);
        assert_eq!(m.predicted_clusters, 3);
        assert_eq!(m.truth_clusters, 3);
        assert_eq!(m.predicted_sizes, m.truth_sizes);
    }

    #[test]
    fn textbook_contingency() {
        // Truth {0,1,2},{3,4}; predicted glues everything.
        let truth = vec![vec![0, 1, 2], vec![3, 4]];
        let predicted = vec![vec![0, 1, 2, 3, 4]];
        let m = ClusterMetrics::from_partitions(&predicted, &truth, 5);
        // TP = C(3,2)+C(2,2) = 4 of the C(5,2) = 10 predicted pairs.
        assert!((m.pairwise.precision - 0.4).abs() < 1e-12);
        assert_eq!(m.pairwise.recall, 1.0);
        // ccF1: {0,1,2} vs the glued cluster → F1(3/5, 1) = 0.75;
        // {3,4} → F1(2/5, 1) = 4/7.
        let expected = (0.75 + 4.0 / 7.0) / 2.0;
        assert!((m.closest_cluster_f1 - expected).abs() < 1e-12, "{m}");
    }

    #[test]
    fn shattering_hurts_recall_and_cc_f1() {
        let truth = vec![vec![0, 1, 2, 3]];
        let predicted = vec![vec![0, 1], vec![2, 3]];
        let m = ClusterMetrics::from_partitions(&predicted, &truth, 4);
        assert_eq!(m.pairwise.precision, 1.0);
        // 2 of the 6 true pairs survive.
        assert!((m.pairwise.recall - 2.0 / 6.0).abs() < 1e-12);
        // Best single cluster covers half: F1(1, 0.5) = 2/3.
        assert!((m.closest_cluster_f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_singletons_against_all_singletons() {
        let p: Vec<Vec<usize>> = (0..4).map(|i| vec![i]).collect();
        let m = ClusterMetrics::from_partitions(&p, &p, 4);
        // No pairs on either side: vacuously perfect.
        assert_eq!(m.pairwise.f1, 1.0);
        assert_eq!(m.closest_cluster_f1, 1.0);
        assert_eq!(m.predicted_sizes.buckets, vec![(1, 4)]);
        assert_eq!(m.predicted_sizes.clusters(), 4);
    }

    #[test]
    fn empty_universe() {
        let m = ClusterMetrics::from_partitions(&[], &[], 0);
        assert_eq!(m.pairwise.f1, 1.0);
        assert_eq!(m.closest_cluster_f1, 1.0);
        assert_eq!(m.predicted_sizes, SizeHistogram::default());
    }

    #[test]
    fn histogram_display_is_compact() {
        let h = SizeHistogram::from_partition(&[vec![0], vec![1], vec![2, 3]]);
        assert_eq!(h.to_string(), "1×2 2×1");
    }
}

//! Property tests for metric identities.

use std::collections::HashSet;

use proptest::prelude::*;

use probdedup_eval::{ConfusionCounts, EffectivenessMetrics, ReductionMetrics};

/// Two pair sets over a shared row universe.
type PairSets = (HashSet<(usize, usize)>, HashSet<(usize, usize)>, usize);

/// Strategy: predicted and truth pair sets over `n` rows.
fn arb_pair_sets() -> impl Strategy<Value = PairSets> {
    (4usize..16).prop_flat_map(|n| {
        let pairs = move || {
            proptest::collection::hash_set(
                (0..n, 0..n)
                    .prop_filter_map("self", |(a, b)| (a != b).then(|| (a.min(b), a.max(b)))),
                0..(n * 2),
            )
        };
        (pairs(), pairs(), Just(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Confusion counts always partition the n·(n−1)/2 pair universe.
    #[test]
    fn confusion_partitions((predicted, truth, n) in arb_pair_sets()) {
        let c = ConfusionCounts::from_pair_sets(&predicted, &truth, n);
        prop_assert_eq!(c.total() as usize, n * (n - 1) / 2);
        prop_assert_eq!((c.tp + c.fp) as usize, predicted.len());
        prop_assert_eq!((c.tp + c.fn_) as usize, truth.len());
    }

    /// Metric identities: F1 is the harmonic mean; FN% = 1 − recall;
    /// everything is in [0, 1].
    #[test]
    fn metric_identities((predicted, truth, n) in arb_pair_sets()) {
        let c = ConfusionCounts::from_pair_sets(&predicted, &truth, n);
        let m = EffectivenessMetrics::from_counts(&c);
        for v in [m.precision, m.recall, m.f1, m.false_positive_pct, m.false_negative_pct] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert!((m.false_negative_pct - (1.0 - m.recall)).abs() < 1e-12);
        if m.precision > 0.0 && m.recall > 0.0 {
            let hm = 2.0 * m.precision * m.recall / (m.precision + m.recall);
            prop_assert!((m.f1 - hm).abs() < 1e-12);
        }
        // F1 (a harmonic mean) lies between its components.
        prop_assert!(m.f1 <= m.precision.max(m.recall) + 1e-12);
        if m.precision > 0.0 && m.recall > 0.0 {
            prop_assert!(m.f1 >= m.precision.min(m.recall) - 1e-12);
        }
    }

    /// Reduction metrics: PC and RR in [0,1]; the full pair set has PC 1.
    #[test]
    fn reduction_metric_bounds((candidates, truth, n) in arb_pair_sets()) {
        let m = ReductionMetrics::evaluate(&candidates, &truth, n);
        prop_assert!((0.0..=1.0).contains(&m.pairs_completeness));
        prop_assert!((0.0..=1.0).contains(&m.reduction_ratio));
        let mut full = HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                full.insert((i, j));
            }
        }
        let m_full = ReductionMetrics::evaluate(&full, &truth, n);
        prop_assert_eq!(m_full.pairs_completeness, 1.0);
        prop_assert_eq!(m_full.reduction_ratio, 0.0);
    }
}

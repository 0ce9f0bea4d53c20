//! Property tests for search-space reduction: containment laws, dedup
//! invariants and window monotonicity.

use proptest::prelude::*;

use probdedup_model::schema::Schema;
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::{
    block_alternatives, block_conflict_resolved, conflict_resolved_snm, multipass_snm, ranked_snm,
    sorted_neighborhood, sorting_alternatives, CandidatePairs, ConflictResolution, KeySpec,
    RankingFunction, SnmEntry, WorldSelection,
};

/// Strategy: a small x-relation (as a Vec of x-tuples) over (name, job).
fn arb_xtuples() -> impl Strategy<Value = Vec<XTuple>> {
    proptest::collection::vec(
        proptest::collection::vec(("[A-D][a-c]{1,3}", "[w-z]{1,3}", 1u32..50), 1..3),
        0..7,
    )
    .prop_map(|tuples| {
        let s = Schema::new(["name", "job"]);
        tuples
            .into_iter()
            .map(|alts| {
                let total: u32 = alts.iter().map(|(_, _, w)| *w).sum();
                let denom = f64::from(total) * 1.2;
                let mut b = XTuple::builder(&s);
                for (n, j, w) in alts {
                    b = b.alt(f64::from(w) / denom, [n, j]);
                }
                b.build().unwrap()
            })
            .collect()
    })
}

fn spec() -> KeySpec {
    KeySpec::paper_example(0, 1)
}

/// All pairs are canonical (lo < hi), in range, and unique.
fn check_pairs_wellformed(pairs: &CandidatePairs, n: usize) -> Result<(), TestCaseError> {
    let mut seen = std::collections::HashSet::new();
    for &(i, j) in pairs.pairs() {
        prop_assert!(i < j, "non-canonical pair ({i},{j})");
        prop_assert!(j < n, "out of range pair ({i},{j})");
        prop_assert!(seen.insert((i, j)), "duplicate pair ({i},{j})");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every reduction method yields well-formed pair sets.
    #[test]
    fn all_methods_wellformed(tuples in arb_xtuples()) {
        let n = tuples.len();
        let s = spec();
        check_pairs_wellformed(&multipass_snm(&tuples, &s, 2, WorldSelection::TopK(3)).pairs, n)?;
        check_pairs_wellformed(&conflict_resolved_snm(&tuples, &s, 2, ConflictResolution::MostProbableAlternative).0, n)?;
        check_pairs_wellformed(&sorting_alternatives(&tuples, &s, 2).pairs, n)?;
        check_pairs_wellformed(&ranked_snm(&tuples, &s, 2, RankingFunction::ExpectedScore).0, n)?;
        check_pairs_wellformed(&block_alternatives(&tuples, &s).pairs, n)?;
    }

    /// The paper's subset claim (Section V-A.2): conflict-resolved (most
    /// probable alternative) matchings ⊆ all-worlds multi-pass matchings.
    #[test]
    fn conflict_resolved_subset_of_multipass(tuples in arb_xtuples()) {
        prop_assume!(tuples.len() >= 2);
        let s = spec();
        let (resolved, _) = conflict_resolved_snm(&tuples, &s, 3, ConflictResolution::MostProbableAlternative);
        let multi = multipass_snm(&tuples, &s, 3, WorldSelection::All { limit: 100_000 });
        for &(i, j) in resolved.pairs() {
            prop_assert!(multi.pairs.contains(i, j), "({i},{j}) escaped the multipass");
        }
    }

    /// Conflict-resolved blocking ⊆ per-alternative blocking (an x-tuple's
    /// most probable key is one of its alternative keys).
    #[test]
    fn blocking_containment(tuples in arb_xtuples()) {
        let s = spec();
        let resolved = block_conflict_resolved(&tuples, &s, ConflictResolution::MostProbableAlternative);
        let alts = block_alternatives(&tuples, &s);
        for &(i, j) in resolved.pairs.pairs() {
            prop_assert!(alts.pairs.contains(i, j));
        }
    }

    /// SNM candidate sets grow monotonically with the window size.
    #[test]
    fn window_monotonicity(tuples in arb_xtuples(), w in 2usize..5) {
        let s = spec();
        let small = sorting_alternatives(&tuples, &s, w);
        let large = sorting_alternatives(&tuples, &s, w + 1);
        for &(i, j) in small.pairs.pairs() {
            prop_assert!(large.pairs.contains(i, j));
        }
    }

    /// Multipass with more worlds can only add pairs.
    #[test]
    fn world_budget_monotonicity(tuples in arb_xtuples(), k in 1usize..4) {
        let s = spec();
        let few = multipass_snm(&tuples, &s, 2, WorldSelection::TopK(k));
        let many = multipass_snm(&tuples, &s, 2, WorldSelection::TopK(k + 2));
        for &(i, j) in few.pairs.pairs() {
            prop_assert!(many.pairs.contains(i, j));
        }
    }

    /// The generic SNM never exceeds `entries · (window − 1)` pairs and is
    /// permutation-invariant in its input order.
    #[test]
    fn snm_bounds_and_determinism(
        keys in proptest::collection::vec(("[a-c]{1,2}", 0usize..6), 0..12),
        w in 2usize..4,
    ) {
        let n = 6;
        let entries: Vec<SnmEntry> = keys.iter().map(|(k, t)| SnmEntry::new(k.clone(), *t)).collect();
        let (pairs, _) = sorted_neighborhood(entries.clone(), w, n, false);
        prop_assert!(pairs.len() <= entries.len().saturating_mul(w - 1));
        let mut reversed = entries;
        reversed.reverse();
        let (pairs_rev, _) = sorted_neighborhood(reversed, w, n, false);
        // Same *set* of pairs regardless of input order.
        prop_assert_eq!(pairs.len(), pairs_rev.len());
        for &(i, j) in pairs.pairs() {
            prop_assert!(pairs_rev.contains(i, j));
        }
    }

    /// Ranking by the most probable key is conflict resolution by the most
    /// probable key (Fig. 13 = Fig. 10 with that strategy): the same pairs
    /// in the same order. This is why the session offers no ranked-key
    /// reduction: `ConflictResolved { strategy: MostProbableKey }` is it.
    #[test]
    fn most_probable_key_ranking_is_conflict_resolution(
        tuples in arb_xtuples(),
        w in 2usize..5,
    ) {
        let s = spec();
        let (ranked, _) = ranked_snm(&tuples, &s, w, RankingFunction::MostProbableKey);
        let (resolved, _) = conflict_resolved_snm(&tuples, &s, w, ConflictResolution::MostProbableKey);
        prop_assert_eq!(ranked.pairs(), resolved.pairs());
    }

    /// Ranked SNM orders every tuple exactly once.
    #[test]
    fn ranking_is_a_permutation(tuples in arb_xtuples()) {
        let s = spec();
        for f in [RankingFunction::MostProbableKey, RankingFunction::ExpectedScore] {
            let (_, order) = ranked_snm(&tuples, &s, 2, f);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..tuples.len()).collect::<Vec<_>>());
        }
    }
}

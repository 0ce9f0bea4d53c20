//! Test support: the **paper-literal reference** the matching engine is
//! checked against (shared by this crate's tests and the workspace-level
//! suites under `tests/`; not a driver path).
//!
//! The reference classifies a result's candidate pairs exactly as
//! Section IV-A writes it — Eq. 5 per attribute straight off the
//! [`XTuple`](probdedup_model::xtuple::XTuple)s
//! ([`compare_xtuples`]), the Fig. 6 comparison matrix, then
//! [`XTupleDecisionModel::decide`] — with no interning, no pruning and no
//! bounds.

use probdedup_decision::threshold::MatchClass;
use probdedup_decision::xmodel::XTupleDecisionModel;
use probdedup_matching::matrix::compare_xtuples;
use probdedup_matching::vector::AttributeComparators;
use probdedup_reduction::{
    ClusterBlockingConfig, ConflictResolution, KeySpec, RankingFunction, WorldSelection,
};

use crate::cluster::UnionFind;
use crate::pipeline::{DedupResult, PairDecision, ReductionStrategy};

/// All nine [`ReductionStrategy`] variants over `spec`, at windows, world
/// counts and cluster counts small enough to cut a handful of rows.
pub fn all_strategies(spec: &KeySpec) -> Vec<ReductionStrategy> {
    let mpa = ConflictResolution::MostProbableAlternative;
    let spec = || spec.clone();
    vec![
        ReductionStrategy::Full,
        ReductionStrategy::SortingAlternatives {
            spec: spec(),
            window: 3,
        },
        ReductionStrategy::ConflictResolved {
            spec: spec(),
            window: 3,
            strategy: mpa,
        },
        ReductionStrategy::RankedKeys {
            spec: spec(),
            window: 3,
            ranking: RankingFunction::ExpectedScore,
        },
        ReductionStrategy::BlockingAlternatives { spec: spec() },
        ReductionStrategy::BlockingConflictResolved {
            spec: spec(),
            strategy: mpa,
        },
        ReductionStrategy::MultipassWorlds {
            spec: spec(),
            window: 2,
            selection: WorldSelection::TopK(2),
        },
        ReductionStrategy::BlockingMultipass {
            spec: spec(),
            selection: WorldSelection::TopK(2),
        },
        ReductionStrategy::ClusterBlocking {
            spec: spec(),
            config: ClusterBlockingConfig {
                k: 2,
                ..ClusterBlockingConfig::default()
            },
        },
    ]
}

/// The paper-literal decisions for `result`'s candidate pairs, in
/// `result`'s candidate order, over `result`'s prepared relation.
pub fn reference_decisions(
    result: &DedupResult,
    comparators: &AttributeComparators,
    model: &dyn XTupleDecisionModel,
) -> Vec<PairDecision> {
    let tuples = result.relation.xtuples();
    result
        .decisions
        .iter()
        .map(|d| {
            let (i, j) = d.pair;
            let matrix = compare_xtuples(&tuples[i], &tuples[j], comparators);
            let r = model.decide(&tuples[i], &tuples[j], &matrix);
            PairDecision {
                pair: d.pair,
                similarity: r.similarity,
                class: r.class,
            }
        })
        .collect()
}

/// The **exact** engine's contract against the reference: every candidate
/// decided, same class per pair, `|Δsim| < 1e-12` (the interned sum runs
/// in descending-probability order, so agreement is to rounding, not
/// bits), same duplicate clusters.
pub fn assert_exact_agrees_with_reference(
    result: &DedupResult,
    comparators: &AttributeComparators,
    model: &dyn XTupleDecisionModel,
    label: &str,
) {
    assert_agrees(result, comparators, model, Some(1e-12), label);
}

/// The **classify-only** engine's contract against the reference (`model`
/// being the linear model the `classify_only` configuration stands for):
/// same class per pair and same duplicate clusters; `similarity` is only
/// a certified representative and is not compared.
pub fn assert_classes_agree_with_reference(
    result: &DedupResult,
    comparators: &AttributeComparators,
    model: &dyn XTupleDecisionModel,
    label: &str,
) {
    assert_agrees(result, comparators, model, None, label);
}

fn assert_agrees(
    result: &DedupResult,
    comparators: &AttributeComparators,
    model: &dyn XTupleDecisionModel,
    sim_tolerance: Option<f64>,
    label: &str,
) {
    assert_eq!(
        result.candidates,
        result.decisions.len(),
        "{label}: every candidate must be decided"
    );
    let reference = reference_decisions(result, comparators, model);
    let mut uf = UnionFind::new(result.relation.len());
    for (got, want) in result.decisions.iter().zip(&reference) {
        assert_eq!(
            got.class, want.class,
            "{label}: pair {:?} classified {} (sim {}), reference {} (sim {})",
            got.pair, got.class, got.similarity, want.class, want.similarity
        );
        if let Some(tolerance) = sim_tolerance {
            assert!(
                (got.similarity - want.similarity).abs() < tolerance,
                "{label}: pair {:?} similarity {} vs reference {}",
                got.pair,
                got.similarity,
                want.similarity
            );
        }
        if want.class == MatchClass::Match {
            uf.union(want.pair.0, want.pair.1);
        }
    }
    assert_eq!(result.clusters, uf.clusters(2), "{label}: clusters");
}

//! End-to-end contracts of the entity-resolution subsystem
//! (`probdedup::entity`) over the real pipeline:
//!
//! * **determinism** — the resolution is byte-identical across thread
//!   counts and invariant under the order the decided pairs arrive in;
//! * **a read is a read** — resolving a session is the same value as
//!   resolving its `result()`, the one-shot run's and a reopened
//!   snapshot's, and leaves the session's snapshot bytes unchanged;
//! * **semantics** — on a constructed inconsistent triangle the
//!   correlation-repaired strategy splits what connected components
//!   glue, and on clean corpora all strategies agree.
//!
//! These tests run the exact (non-bounded) matcher.

use std::sync::Arc;

use proptest::prelude::*;

use probdedup::core::pipeline::{DedupPipeline, PairDecision, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::session::DedupSession;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries, SyntheticDataset};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::decision::xmodel::SimilarityBasedModel;
use probdedup::entity::{resolve_decisions, ClusterStrategy, ResolveEntities};
use probdedup::eval::ClusterMetrics;
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::relation::XRelation;
use probdedup::reduction::{KeyPart, KeySpec};
use probdedup::textsim::JaroWinkler;

/// Two dirty overlapping sources with ground truth.
fn dataset(entities: usize, seed: u64) -> SyntheticDataset {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities,
            sources: 2,
            typo_rate: 0.3,
            uncertainty_rate: 0.4,
            xtuple_rate: 0.3,
            maybe_rate: 0.2,
            seed,
            ..DatasetConfig::default()
        },
    )
}

fn sources(entities: usize, seed: u64) -> Vec<XRelation> {
    dataset(entities, seed).relations
}

/// Exact (non-bounded) pipeline — certified similarities, hence edge
/// weights, are deterministic.
fn pipeline(threads: usize) -> DedupPipeline {
    pipeline_over(
        ReductionStrategy::SortingAlternatives {
            spec: KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)]),
            window: 4,
        },
        threads,
    )
}

fn pipeline_over(reduction: ReductionStrategy, threads: usize) -> DedupPipeline {
    let schema = sources(1, 7).remove(0).schema().clone();
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(&schema, JaroWinkler::new()))
        .model(Arc::new(SimilarityBasedModel::new(
            Arc::new(WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.72, 0.82).unwrap(),
        )))
        .reduction(reduction)
        .threads(threads)
        .build()
}

/// Byte identity across thread counts, for every strategy: the whole
/// resolution — clusters, stats (including repair moves), possible
/// edges — must not depend on parallel classification order.
#[test]
fn resolution_is_identical_across_thread_counts() {
    let srcs = sources(16, 0xE17);
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let reference = pipeline(1).run(&refs).unwrap();
    let parallel = pipeline(4).run(&refs).unwrap();
    for strategy in ClusterStrategy::ALL {
        assert_eq!(
            reference.resolve_entities(strategy),
            parallel.resolve_entities(strategy),
            "threads 1 vs 4, {strategy}"
        );
    }
}

/// An entity read of a session is a pure function of its decisions and
/// leaves no trace: after **each** streamed batch, for every strategy, the
/// session resolves to what its `result()`, the one-shot run over the
/// batches so far and a session reopened from its snapshot resolve to —
/// and the snapshot bytes are the same before and after the reads.
/// (`threads(1)`, so the compared bytes cannot depend on scheduling.)
#[test]
fn session_resolution_equals_every_other_and_leaves_no_trace() {
    let srcs = sources(14, 0x5E55);
    let p = pipeline(1);
    let mut session = p.session();
    for (batch, src) in srcs.iter().enumerate() {
        session.ingest(src).unwrap();
        let before = session.to_snapshot_bytes();
        let result = session.result();
        let refs: Vec<&XRelation> = srcs[..=batch].iter().collect();
        let oneshot = p.run(&refs).unwrap();
        let reopened = DedupSession::from_snapshot_bytes(&before, &p).unwrap();
        for strategy in ClusterStrategy::ALL {
            let resolved = session.resolve_entities(strategy);
            assert_eq!(resolved, result.resolve_entities(strategy), "{strategy}");
            assert_eq!(resolved, oneshot.resolve_entities(strategy), "{strategy}");
            assert_eq!(resolved, reopened.resolve_entities(strategy), "{strategy}");
        }
        assert_eq!(
            session.to_snapshot_bytes(),
            before,
            "batch {batch}: an entity read changed what `save` persists"
        );
    }
}

/// The constructed inconsistent triangle, end to end through the public
/// resolver: A≈B (strong), B≈C (weaker), A≉C. Transitive closure glues
/// all three; the repaired correlation clustering cuts the weakest
/// agreement instead of overruling the strong disagreement.
#[test]
fn repair_splits_the_inconsistent_triangle_components_do_not() {
    let d = |i: usize, j: usize, sim: f64, class: MatchClass| PairDecision {
        pair: (i, j),
        similarity: sim,
        class,
    };
    let decisions = vec![
        d(0, 1, 0.95, MatchClass::Match),
        d(1, 2, 0.74, MatchClass::Match),
        d(0, 2, 0.05, MatchClass::NonMatch),
    ];

    let glued = resolve_decisions(3, &decisions, ClusterStrategy::Components);
    assert_eq!(glued.clusters, vec![vec![0, 1, 2]]);
    assert_eq!(glued.stats.inconsistent_triangles, 1);

    let repaired = resolve_decisions(3, &decisions, ClusterStrategy::CorrelationRepaired);
    assert_eq!(repaired.clusters, vec![vec![0, 1], vec![2]]);
    assert_eq!(repaired.stats.inconsistent_triangles, 1);
    assert!(repaired.stats.repair_moves > 0 || repaired.clusters.len() == 2);
}

/// On a generated corpus with ground truth, over the full comparison
/// (every inconsistent triangle is visible), repairing the correlation
/// clustering never scores a lower pairwise F1 than gluing connected
/// components.
#[test]
fn repaired_f1_is_not_below_components_on_a_generated_corpus() {
    let ds = dataset(100, 20100301);
    let refs: Vec<&XRelation> = ds.relations.iter().collect();
    let result = pipeline_over(ReductionStrategy::Full, 2)
        .run(&refs)
        .unwrap();
    let truth = ds.truth.true_clusters();
    let f1 = |strategy| {
        let clusters = result.resolve_entities(strategy).clusters;
        ClusterMetrics::from_partitions(&clusters, &truth, ds.total_rows())
            .pairwise
            .f1
    };
    let (components, repaired) = (
        f1(ClusterStrategy::Components),
        f1(ClusterStrategy::CorrelationRepaired),
    );
    assert!(components > 0.0, "the corpus has duplicates to find");
    assert!(
        repaired >= components - 1e-12,
        "correlation-repaired pairwise F1 ({repaired}) fell below components ({components})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pair-order invariance: however the decided pairs are permuted
    /// (here: rotated and reversed — enough to break any order
    /// dependence), every strategy resolves to the identical partition.
    #[test]
    fn resolution_is_invariant_under_pair_order(
        seed in 0u64..1_000_000,
        n in 4usize..24,
        rotation in 0usize..64,
    ) {
        // A deterministic pseudo-random decision list over `n` rows.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut decisions = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                match next() % 4 {
                    0 => decisions.push(PairDecision {
                        pair: (i, j),
                        similarity: (next() % 1000) as f64 / 1000.0,
                        class: MatchClass::Match,
                    }),
                    1 => decisions.push(PairDecision {
                        pair: (i, j),
                        similarity: (next() % 1000) as f64 / 1000.0,
                        class: MatchClass::NonMatch,
                    }),
                    2 => decisions.push(PairDecision {
                        pair: (i, j),
                        similarity: (next() % 1000) as f64 / 1000.0,
                        class: MatchClass::Possible,
                    }),
                    _ => {} // undecided pair
                }
            }
        }
        let mut permuted = decisions.clone();
        let cut = if permuted.is_empty() { 0 } else { rotation % permuted.len() };
        permuted.rotate_left(cut);
        permuted.reverse();

        for strategy in ClusterStrategy::ALL {
            let a = resolve_decisions(n, &decisions, strategy);
            let b = resolve_decisions(n, &permuted, strategy);
            prop_assert_eq!(a, b, "strategy {}", strategy);
        }
    }
}

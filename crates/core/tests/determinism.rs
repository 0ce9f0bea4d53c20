//! Thread-count determinism: the work-stealing executor must reassemble
//! decisions in candidate order, so a `threads(8)` run is **byte-identical**
//! to `threads(1)` on the same input — in both engine configurations, down
//! to the session snapshot bytes. Similarities are compared via their raw
//! f64 bit patterns: not approximately equal, identical. What the bits
//! should *be* is pinned separately, against the paper-literal reference
//! (`probdedup_core::test_support`).

use std::sync::Arc;

use probdedup_core::pipeline::{DedupPipeline, DedupResult, ReductionStrategy};
use probdedup_core::prepare::Preparation;
use probdedup_core::test_support::assert_exact_agrees_with_reference;
use probdedup_datagen::{generate, DatasetConfig, Dictionaries};
use probdedup_decision::combine::WeightedSum;
use probdedup_decision::derive_sim::ExpectedSimilarity;
use probdedup_decision::threshold::Thresholds;
use probdedup_decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup_matching::vector::AttributeComparators;
use probdedup_model::relation::XRelation;
use probdedup_reduction::KeySpec;
use probdedup_textsim::JaroWinkler;

fn dataset() -> probdedup_datagen::SyntheticDataset {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 60,
            sources: 2,
            presence_rate: 0.85,
            extra_copy_rate: 0.1,
            typo_rate: 0.25,
            uncertainty_rate: 0.35,
            xtuple_rate: 0.25,
            maybe_rate: 0.2,
            seed: 0xB10C5,
            ..DatasetConfig::default()
        },
    )
}

fn model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()),
        Arc::new(ExpectedSimilarity),
        Thresholds::new(0.72, 0.82).unwrap(),
    ))
}

fn run(
    sources: &[&XRelation],
    schema: &probdedup_model::schema::Schema,
    threads: usize,
) -> DedupResult {
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(schema, JaroWinkler::new()))
        .model(model())
        .reduction(ReductionStrategy::Full)
        .threads(threads)
        .build()
        .run(sources)
        .expect("pipeline run")
}

/// Bitwise equality of two runs' decision streams.
fn assert_byte_identical(a: &DedupResult, b: &DedupResult, label: &str) {
    assert_eq!(a.candidates, b.candidates, "{label}: candidate counts");
    assert_eq!(
        a.decisions.len(),
        b.decisions.len(),
        "{label}: decision counts"
    );
    for (x, y) in a.decisions.iter().zip(&b.decisions) {
        assert_eq!(x.pair, y.pair, "{label}: pair order diverged");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity bits for {:?}: {} vs {}",
            x.pair,
            x.similarity,
            y.similarity
        );
        assert_eq!(x.class, y.class, "{label}: class for {:?}", x.pair);
    }
    assert_eq!(a.clusters, b.clusters, "{label}: clusters");
}

#[test]
fn threads8_is_byte_identical_to_threads1_interned() {
    let ds = dataset();
    let sources: Vec<&XRelation> = ds.relations.iter().collect();
    let one = run(&sources, &ds.schema, 1);
    let eight = run(&sources, &ds.schema, 8);
    assert!(
        one.candidates > 1000,
        "workload too small to exercise stealing"
    );
    assert_byte_identical(&one, &eight, "interned");
    // The bits the threads agree on are the right ones: the engine
    // matches the paper-literal reference to rounding.
    let comparators = AttributeComparators::uniform(&ds.schema, JaroWinkler::new());
    assert_exact_agrees_with_reference(&eight, &comparators, model().as_ref(), "interned");
    assert_eq!(one.stats, eight.stats);
}

/// The whole persisted session — decisions, similarities, tier counters —
/// is one byte string whatever the thread count, under full comparison
/// and under sorted-neighbourhood, in both engine configurations.
#[test]
fn session_snapshot_bytes_are_thread_invariant() {
    let small = dataset();
    let large = generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 1500,
            sources: 2,
            seed: 0x5A17,
            ..DatasetConfig::default()
        },
    );
    let snm = ReductionStrategy::SortingAlternatives {
        spec: KeySpec::paper_example(0, 2),
        window: 6,
    };
    for (ds, reduction) in [(&small, ReductionStrategy::Full), (&large, snm)] {
        let sources: Vec<&XRelation> = ds.relations.iter().collect();
        for bounded in [false, true] {
            let snapshot = |threads: usize| {
                let b = DedupPipeline::builder()
                    .preparation(Preparation::standard_all(4))
                    .comparators(AttributeComparators::uniform(
                        &ds.schema,
                        JaroWinkler::new(),
                    ))
                    .reduction(reduction.clone())
                    .threads(threads);
                let b = if bounded {
                    b.classify_only(
                        WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap(),
                        Thresholds::new(0.72, 0.82).unwrap(),
                    )
                } else {
                    b.model(model())
                };
                let mut session = b.build_session();
                session.run(&sources).expect("session run");
                session.to_snapshot_bytes()
            };
            let one = snapshot(1);
            for threads in [2, 8] {
                assert!(
                    one == snapshot(threads),
                    "{} bounded={bounded}: threads {threads} snapshot differs from threads 1",
                    reduction.name()
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    let ds = dataset();
    let sources: Vec<&XRelation> = ds.relations.iter().collect();
    let a = run(&sources, &ds.schema, 4);
    let b = run(&sources, &ds.schema, 4);
    assert_byte_identical(&a, &b, "repeat");
}

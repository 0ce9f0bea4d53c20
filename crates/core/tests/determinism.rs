//! Thread-count determinism: the work-stealing executor must reassemble
//! decisions in candidate order, so a `threads(8)` run is **byte-identical**
//! to `threads(1)` on the same input. Similarities are compared via their
//! raw f64 bit patterns: not approximately equal, identical. What the
//! bits should *be* is pinned separately, against the paper-literal
//! reference (`probdedup_core::test_support`).

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
    // Both runs exercised the cache.
    assert!(one.stats.cache_hits > 0 && eight.stats.cache_hits > 0);
    // Hit/miss *totals* must agree run to run (the split may differ: with
    // several threads the same missing pair can be computed twice before
    // the memo lands, which is benign for results). Every exact kernel
    // probe is one hit or one miss, and which probes run depends on the
    // values alone — so a lost count in the per-shard counters shows here.
    assert_eq!(
        one.stats.cache_hits + one.stats.cache_misses,
        eight.stats.cache_hits + eight.stats.cache_misses,
        "cache probe totals"
    );
    assert_eq!(one.stats.interned_values, eight.stats.interned_values);
}

#[test]
fn repeated_runs_are_reproducible() {
    let ds = dataset();
    let sources: Vec<&XRelation> = ds.relations.iter().collect();
    let a = run(&sources, &ds.schema, 4);
    let b = run(&sources, &ds.schema, 4);
    assert_byte_identical(&a, &b, "repeat");
}

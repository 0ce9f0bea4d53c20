//! Cache-eviction soundness: a bounded similarity cache (the PR 6 clock
//! eviction) may forget whatever it likes — recomputation is always
//! correct, so capacity only moves work, never answers. Asserted at the
//! pipeline level for brutal capacities (1, 2, 7 memoized pairs per
//! attribute): the classify-only run classifies every pair exactly as
//! the paper-literal reference does (`probdedup::core::test_support`),
//! the exact run is even byte-identical to its unbounded-cache twin (and
//! agrees with the reference to rounding), and the stats prove eviction
//! actually happened (`cache_evictions > 0` — the capacities are far
//! below the workload's distinct symbol pairs). The same holds when the
//! capacity is derived from a `memory_budget` on an unsharded run.

use std::sync::Arc;

use probdedup::core::pipeline::{DedupPipeline, DedupPipelineBuilder, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::test_support::{
    assert_classes_agree_with_reference, assert_exact_agrees_with_reference,
};
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::relation::XRelation;
use probdedup::textsim::JaroWinkler;

fn source() -> XRelation {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 30,
            sources: 1,
            typo_rate: 0.3,
            uncertainty_rate: 0.4,
            xtuple_rate: 0.3,
            maybe_rate: 0.2,
            seed: 0xE71C7,
            ..DatasetConfig::default()
        },
    )
    .combined()
}

fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(source().schema(), JaroWinkler::new())
}

fn phi() -> WeightedSum {
    WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()
}

fn thresholds() -> Thresholds {
    Thresholds::new(0.72, 0.82).unwrap()
}

/// The exact model — also the linear model classify-only stands for.
fn model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(phi()),
        Arc::new(ExpectedSimilarity),
        thresholds(),
    ))
}

fn builder() -> DedupPipelineBuilder {
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(comparators())
        .reduction(ReductionStrategy::Full)
        .threads(2)
}

fn pipeline(bounded: bool, capacity: Option<usize>) -> DedupPipeline {
    let b = builder().cache_capacity(capacity);
    if bounded {
        b.classify_only(phi(), thresholds()).build()
    } else {
        b.model(model()).build()
    }
}

#[test]
fn bounded_partition_survives_brutal_eviction() {
    let r = source();
    for capacity in [1usize, 2, 7] {
        let result = pipeline(true, Some(capacity)).run(&[&r]).unwrap();
        let label = format!("bounded capacity={capacity}");
        // Eviction must not move any pair off the paper-literal class.
        assert_classes_agree_with_reference(&result, &comparators(), model().as_ref(), &label);
        assert!(
            result.stats.cache_evictions > 0,
            "{label}: expected evictions, got stats {:?}",
            result.stats
        );
    }
}

#[test]
fn exact_decisions_are_byte_identical_under_eviction() {
    let r = source();
    // Reference: the same engine with an unbounded cache — the same
    // arithmetic as the capped runs, itself pinned to the paper-literal
    // reference (to rounding: the interned sum runs in a different order).
    let reference = pipeline(false, None).run(&[&r]).unwrap();
    assert_exact_agrees_with_reference(&reference, &comparators(), model().as_ref(), "unbounded");
    for capacity in [1usize, 2, 7] {
        let result = pipeline(false, Some(capacity)).run(&[&r]).unwrap();
        // Exact mode certifies exact similarities no matter what the
        // cache remembers: full byte equality, not just the partition.
        assert_eq!(
            reference.decisions, result.decisions,
            "exact capacity={capacity}"
        );
        assert_eq!(reference.clusters, result.clusters);
        assert!(
            result.stats.cache_evictions > 0,
            "exact capacity={capacity}: expected evictions"
        );
    }
}

/// A `memory_budget` on the **unsharded** front door is a cache capacity
/// and nothing else (4 KiB → 25 entries per cache): the session's
/// candidate pairs and decisions are not governed, so the run is
/// byte-identical to the unbudgeted one, with evictions to show for it.
#[test]
fn unsharded_memory_budget_only_evicts_cache_entries() {
    let r = source();
    let reference = pipeline(false, None).run(&[&r]).unwrap();
    let budgeted = builder()
        .model(model())
        .memory_budget(Some(1 << 12))
        .build()
        .run(&[&r])
        .unwrap();
    assert_eq!(reference.decisions, budgeted.decisions);
    assert_eq!(reference.clusters, budgeted.clusters);
    assert_eq!(reference.stats.cache_evictions, 0);
    assert!(budgeted.stats.cache_evictions > 0, "{:?}", budgeted.stats);
}

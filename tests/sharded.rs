//! The sharded pipeline's **shard-invariance** contract: for every
//! reduction strategy and every shard count `k ∈ 1..=8`, the merged
//! [`ShardedPipeline`] result equals the one-shot [`DedupPipeline::run`]
//! over the same sources.
//!
//! "Equals" is the engine's equality contract — ARCHITECTURE.md, "The
//! engine" — byte identity (`assert_identical`) in both configurations.
//! Stats are excluded: tier counters are per run, not per result. The
//! one-shot run itself is pinned to the paper-literal reference
//! (`probdedup::core::test_support`).
//!
//! [`ShardedPipeline`]: probdedup::core::shard::ShardedPipeline
//! [`DedupPipeline::run`]: probdedup::core::pipeline::DedupPipeline::run

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use probdedup::core::pipeline::{DedupPipeline, DedupResult, ReductionStrategy};
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
use probdedup::model::shard_of_key;
use probdedup::model::world::top_k_worlds;
use probdedup::reduction::{
    block_alternatives, block_conflict_resolved, ClusterBlockingConfig, ConflictResolution,
    KeyPart, KeySpec, RankingFunction, WorldSelection,
};
use probdedup::textsim::JaroWinkler;

/// Two small dirty sources (kept separate: the sharded run must also
/// reproduce the one-shot source combination and offsets).
fn sources(entities: usize, seed: u64) -> Vec<XRelation> {
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
    .relations
}

fn key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

/// Every reduction variant the pipeline offers — the SNM window scans,
/// the blocking visitors and the positional stripes (full, ranked,
/// cluster blocking).
fn strategies() -> Vec<ReductionStrategy> {
    vec![
        ReductionStrategy::Full,
        ReductionStrategy::SortingAlternatives {
            spec: key(),
            window: 4,
        },
        ReductionStrategy::ConflictResolved {
            spec: key(),
            window: 4,
            strategy: ConflictResolution::MostProbableAlternative,
        },
        ReductionStrategy::MultipassWorlds {
            spec: key(),
            window: 3,
            selection: WorldSelection::TopK(3),
        },
        ReductionStrategy::RankedKeys {
            spec: key(),
            window: 4,
            ranking: RankingFunction::MostProbableKey,
        },
        ReductionStrategy::BlockingAlternatives { spec: key() },
        ReductionStrategy::BlockingConflictResolved {
            spec: key(),
            strategy: ConflictResolution::MostProbableAlternative,
        },
        ReductionStrategy::BlockingMultipass {
            spec: key(),
            selection: WorldSelection::TopK(3),
        },
        ReductionStrategy::ClusterBlocking {
            spec: key(),
            config: ClusterBlockingConfig::default(),
        },
    ]
}

fn comparators() -> AttributeComparators {
    let schema = sources(1, 7).remove(0).schema().clone();
    AttributeComparators::uniform(&schema, JaroWinkler::new())
}

fn phi() -> WeightedSum {
    WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()
}

fn thresholds() -> Thresholds {
    Thresholds::new(0.72, 0.82).unwrap()
}

/// The exact model — also the linear model the classify-only
/// configuration stands for.
fn model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(phi()),
        Arc::new(ExpectedSimilarity),
        thresholds(),
    ))
}

fn pipeline(strategy: ReductionStrategy, bounded: bool, threads: usize) -> DedupPipeline {
    let b = DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(comparators())
        .reduction(strategy)
        .threads(threads);
    if bounded {
        b.classify_only(phi(), thresholds()).build()
    } else {
        b.model(model()).build()
    }
}

/// Byte equality: everything but the stats.
fn assert_identical(reference: &DedupResult, sharded: &DedupResult, label: &str) {
    assert_eq!(
        reference.candidates, sharded.candidates,
        "{label}: candidates"
    );
    assert_eq!(reference.decisions, sharded.decisions, "{label}: decisions");
    assert_eq!(reference.clusters, sharded.clusters, "{label}: clusters");
    assert_eq!(
        reference.source_offsets, sharded.source_offsets,
        "{label}: offsets"
    );
    assert_eq!(
        reference.relation.xtuples(),
        sharded.relation.xtuples(),
        "{label}: combined relation"
    );
}

/// Exhaustive sweep: every strategy × k ∈ 1..=8 × exact/classify-only
/// against the one-shot run, which itself must agree with the
/// paper-literal reference.
#[test]
fn shard_invariance_across_strategies() {
    let srcs = sources(16, 0xC0FFEE);
    let refs: Vec<&XRelation> = srcs.iter().collect();
    for strategy in strategies() {
        let name = strategy.name();
        for bounded in [false, true] {
            let p = pipeline(strategy.clone(), bounded, 2);
            let one_shot = p.run(&refs).unwrap();
            let label = format!("{name} bounded={bounded}");
            if bounded {
                assert_classes_agree_with_reference(
                    &one_shot,
                    &comparators(),
                    model().as_ref(),
                    &label,
                );
            } else {
                assert_exact_agrees_with_reference(
                    &one_shot,
                    &comparators(),
                    model().as_ref(),
                    &label,
                );
            }
            for k in 1..=8usize {
                let (merged, stats) = p.sharded(k).run_with_stats(&refs).unwrap();
                let label = format!("{label} k={k}");
                assert_eq!(stats.shards, k, "{label}");
                assert_eq!(
                    stats.shard_candidates.iter().sum::<usize>(),
                    merged.candidates,
                    "{label}: shard counts"
                );
                assert_identical(&one_shot, &merged, &label);
            }
        }
    }
}

/// Per-shard candidate counts when the blocks of each pass are walked in
/// sorted-key order, every within-block pair goes to the shard its block
/// key hashes to, and the first sighting of a pair wins.
fn route_blocks(passes: &[BTreeMap<String, Vec<usize>>], k: usize) -> Vec<usize> {
    let mut counts = vec![0usize; k];
    let mut seen = HashSet::new();
    for blocks in passes {
        for (key, members) in blocks {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if seen.insert((i.min(j), i.max(j))) {
                        counts[shard_of_key(key, k)] += 1;
                    }
                }
            }
        }
    }
    counts
}

/// "Stable routing" (ARCHITECTURE.md, sharded-driver invariant 2), pinned:
/// which shard a candidate lands in is a function of where reduction
/// generated it, not of how the driver walks the emission. Blocking
/// strategies are recomputed independently from the public block views;
/// the SNM and positional strategies are golden vectors recorded from the
/// commit before the driver started routing the in-memory emission loops.
#[test]
fn shard_routing_is_pinned() {
    // Per strategy: `shard_candidates` for k = 2, 5, 8.
    let golden = [
        (
            "full",
            "[[315, 91], [153, 117, 81, 45, 10], [106, 90, 57, 62, 46, 24, 18, 3]]",
        ),
        (
            "snm-alternatives",
            "[[46, 36], [16, 16, 20, 26, 4], [10, 9, 15, 5, 15, 14, 6, 8]]",
        ),
        (
            "snm-conflict-resolved",
            "[[52, 29], [18, 14, 18, 24, 7], [15, 9, 16, 3, 15, 12, 6, 5]]",
        ),
        (
            "snm-multipass",
            "[[38, 24], [12, 11, 15, 19, 5], [10, 6, 11, 3, 12, 9, 5, 6]]",
        ),
        (
            "snm-ranked",
            "[[41, 40], [18, 17, 16, 15, 15], [12, 12, 11, 10, 9, 9, 9, 9]]",
        ),
        (
            "blocking-cluster",
            "[[25, 25], [10, 10, 10, 10, 10], [7, 7, 6, 6, 6, 6, 6, 6]]",
        ),
    ];
    let srcs = sources(16, 0xC0FFEE);
    let refs: Vec<&XRelation> = srcs.iter().collect();
    for strategy in strategies() {
        let name = strategy.name();
        let p = pipeline(strategy.clone(), false, 1);
        let (mut routed, mut recomputed) = (Vec::new(), Vec::new());
        for k in [2, 5, 8] {
            let (merged, stats) = p.sharded(k).run_with_stats(&refs).unwrap();
            routed.push(stats.shard_candidates);
            let tuples = merged.relation.xtuples();
            match &strategy {
                ReductionStrategy::BlockingAlternatives { spec } => {
                    recomputed.push(route_blocks(&[block_alternatives(tuples, spec).blocks], k));
                }
                ReductionStrategy::BlockingConflictResolved { spec, strategy } => {
                    let blocks = block_conflict_resolved(tuples, spec, *strategy).blocks;
                    recomputed.push(route_blocks(&[blocks], k));
                }
                ReductionStrategy::BlockingMultipass {
                    spec,
                    selection: WorldSelection::TopK(worlds),
                } => {
                    let keys: Vec<Vec<String>> =
                        tuples.iter().map(|t| spec.alternative_keys(t)).collect();
                    let passes: Vec<BTreeMap<String, Vec<usize>>> =
                        top_k_worlds(tuples, *worlds, true)
                            .iter()
                            .map(|world| {
                                let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
                                for (i, alts) in keys.iter().enumerate() {
                                    let alt = world.choices[i].expect("full world");
                                    blocks.entry(alts[alt].clone()).or_default().push(i);
                                }
                                blocks
                            })
                            .collect();
                    recomputed.push(route_blocks(&passes, k));
                }
                _ => {}
            }
        }
        let expected = match golden.iter().find(|(n, _)| *n == name) {
            Some((_, recorded)) => recorded.to_string(),
            None => format!("{recomputed:?}"),
        };
        assert_eq!(format!("{routed:?}"), expected, "{name}");
    }
}

/// Entity-resolution rider on the shard-invariance harness: resolving
/// the merged sharded result must equal resolving the one-shot result —
/// the full [`EntityResolution`] (clusters, stats, possible edges), for
/// every cluster strategy and both engine configurations.
///
/// [`EntityResolution`]: probdedup::entity::EntityResolution
#[test]
fn entity_resolution_is_shard_invariant() {
    use probdedup::entity::{ClusterStrategy, ResolveEntities};

    let srcs = sources(16, 0xC0FFEE);
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let strategy = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 4,
    };
    for bounded in [false, true] {
        let p = pipeline(strategy.clone(), bounded, 2);
        let reference = p.run(&refs).unwrap();
        for k in [1usize, 4] {
            let merged = p.sharded(k).run(&refs).unwrap();
            for s in ClusterStrategy::ALL {
                let a = reference.resolve_entities(s);
                let b = merged.resolve_entities(s);
                assert_eq!(a, b, "bounded={bounded} k={k} strategy={s}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random corpora: any seed/size, any strategy, any shard count,
    /// exact or bounded — the merged result matches the one-shot run.
    #[test]
    fn shard_invariance_on_random_corpora(
        seed in 0u64..1_000_000,
        entities in 4usize..20,
        strat_idx in 0usize..9,
        k in 1usize..=8,
        bounded in any::<bool>(),
    ) {
        let srcs = sources(entities, seed);
        let refs: Vec<&XRelation> = srcs.iter().collect();
        let strategy = strategies().swap_remove(strat_idx);
        let label = format!(
            "{} seed={seed} entities={entities} k={k} bounded={bounded}",
            strategy.name()
        );
        let p = pipeline(strategy, bounded, 2);
        let reference = p.run(&refs).unwrap();
        let merged = p.sharded(k).run(&refs).unwrap();
        assert_identical(&reference, &merged, &label);
    }
}

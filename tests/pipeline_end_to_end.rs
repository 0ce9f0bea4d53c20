//! End-to-end pipeline tests on synthetic data: the five-step process with
//! different reduction strategies and decision models, verified against
//! ground truth.

use std::sync::Arc;

use probdedup::core::pipeline::{DedupPipeline, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::prob_result::probabilistic_result;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_decision::MatchingWeightDerivation;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::{DecisionBasedModel, SimilarityBasedModel, XTupleDecisionModel};
use probdedup::eval::{ConfusionCounts, EffectivenessMetrics};
use probdedup::matching::vector::AttributeComparators;
use probdedup::reduction::{ConflictResolution, KeyPart, KeySpec, WorldSelection};
use probdedup::textsim::JaroWinkler;

fn dataset() -> probdedup::datagen::SyntheticDataset {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 150,
            sources: 2,
            presence_rate: 0.85,
            extra_copy_rate: 0.1,
            typo_rate: 0.25,
            uncertainty_rate: 0.35,
            xtuple_rate: 0.25,
            maybe_rate: 0.2,
            seed: 99,
            ..DatasetConfig::default()
        },
    )
}

fn weights() -> WeightedSum {
    WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()
}

fn similarity_model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(weights()),
        Arc::new(ExpectedSimilarity),
        // Tuned on this generator config: P ≈ 0.97, R ≈ 0.72 at full scan.
        Thresholds::new(0.72, 0.82).unwrap(),
    ))
}

fn key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

fn run(reduction: ReductionStrategy, model: Arc<dyn XTupleDecisionModel>) -> (usize, f64, f64) {
    let ds = dataset();
    let sources: Vec<&probdedup::model::relation::XRelation> = ds.relations.iter().collect();
    let result = DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(
            &ds.schema,
            JaroWinkler::new(),
        ))
        .model(model)
        .reduction(reduction)
        .threads(2)
        .build()
        .run(&sources)
        .unwrap();
    let truth = ds.truth.true_pairs();
    let m = EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(
        &result.match_pair_set(),
        &truth,
        result.relation.len(),
    ));
    (result.candidates, m.precision, m.recall)
}

/// Full comparison with the similarity-based model must reach solid
/// precision and recall on moderately dirty data.
#[test]
fn full_comparison_quality() {
    let (candidates, precision, recall) = run(ReductionStrategy::Full, similarity_model());
    let ds = dataset();
    let n = ds.total_rows();
    assert_eq!(candidates, n * (n - 1) / 2);
    assert!(precision > 0.9, "precision = {precision}");
    assert!(recall > 0.65, "recall = {recall}");
}

/// Reduction strategies trade candidates for recall but never precision
/// (matches are a subset of full-comparison matches by construction).
#[test]
fn reduction_trades_candidates_for_recall() {
    let (full_cand, _, full_recall) = run(ReductionStrategy::Full, similarity_model());
    for strategy in [
        ReductionStrategy::SortingAlternatives {
            spec: key(),
            window: 6,
        },
        ReductionStrategy::ConflictResolved {
            spec: key(),
            window: 6,
            strategy: ConflictResolution::MostProbableKey,
        },
        ReductionStrategy::MultipassWorlds {
            spec: key(),
            window: 6,
            selection: WorldSelection::DiverseTopK { k: 3, pool: 16 },
        },
        ReductionStrategy::BlockingAlternatives { spec: key() },
    ] {
        let name = strategy.name();
        let (cand, precision, recall) = run(strategy, similarity_model());
        assert!(cand < full_cand, "{name}: {cand} !< {full_cand}");
        assert!(recall <= full_recall + 1e-12, "{name}");
        assert!(precision > 0.85, "{name}: precision = {precision}");
        assert!(recall > 0.25, "{name}: recall = {recall}");
    }
}

/// The decision-based model (matching weight) works end to end too.
#[test]
fn decision_based_model_end_to_end() {
    let model: Arc<dyn XTupleDecisionModel> = Arc::new(DecisionBasedModel::new(
        Arc::new(weights()),
        Thresholds::new(0.72, 0.82).unwrap(),
        Arc::new(MatchingWeightDerivation::with_cap(1e9)),
        Thresholds::new(0.5, 3.0).unwrap(),
    ));
    let (_, precision, recall) = run(ReductionStrategy::Full, model);
    assert!(precision > 0.85, "precision = {precision}");
    assert!(recall > 0.4, "recall = {recall}");
}

/// The probabilistic result is structurally valid on real pipeline output.
#[test]
fn probabilistic_result_is_valid() {
    let ds = dataset();
    let sources: Vec<&probdedup::model::relation::XRelation> = ds.relations.iter().collect();
    let result = DedupPipeline::builder()
        .comparators(AttributeComparators::uniform(
            &ds.schema,
            JaroWinkler::new(),
        ))
        .model(similarity_model())
        .reduction(ReductionStrategy::Full)
        .build()
        .run(&sources)
        .unwrap();
    let prob = probabilistic_result(&result, true);
    for sets in &prob.constraints {
        sets.validate(&prob.relation).unwrap();
        let total: f64 = sets.options().iter().map(|(_, p)| p).sum();
        assert!(total <= 1.0 + 1e-9);
    }
    // Fused clusters shrink the relation; possible matches add rows.
    assert!(!prob.relation.is_empty());
}

//! Record linkage on person data with the Fellegi–Sunter model and
//! unsupervised EM parameter estimation — the probabilistic-technique
//! branch of the paper (Section III-D, references [16], [26]).
//!
//! ```text
//! cargo run --example census_linkage
//! ```
//!
//! Two census-style snapshots of the same population are generated, the
//! m/u-probabilities are estimated **without labels** from the candidate
//! pairs' agreement patterns (EM, Winkler 1988), optimal thresholds are
//! derived from admissible error rates (Fellegi & Sunter 1969), and the
//! end-to-end result is verified against the ground truth — including the
//! probabilistic result relation of the paper's conclusion.

use std::sync::Arc;

use probdedup::core::pipeline::{DedupPipeline, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::prob_result::probabilistic_result;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_decision::ExpectedMatchingResult;
use probdedup::decision::em::{binarize, fit_em, EmConfig};
use probdedup::decision::model::{DecisionModel, FsModel};
use probdedup::decision::threshold::MatchClass;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::DecisionBasedModel;
use probdedup::eval::{ConfusionCounts, EffectivenessMetrics, Table};
use probdedup::matching::matrix::compare_xtuples;
use probdedup::matching::vector::compare_tuples;
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::convert::marginalize_xtuple;
use probdedup::reduction::{
    block_alternatives, conflict_resolved_snm, ConflictResolution, KeyPart, KeySpec,
};
use probdedup::textsim::JaroWinkler;

fn main() {
    let cfg = DatasetConfig {
        entities: 600,
        sources: 2,
        presence_rate: 0.9,
        extra_copy_rate: 0.1,
        typo_rate: 0.35,
        uncertainty_rate: 0.45,
        xtuple_rate: 0.3,
        maybe_rate: 0.15,
        seed: 1969, // Fellegi & Sunter's year
        ..DatasetConfig::default()
    };
    let ds = generate(&Dictionaries::people(), &cfg);
    let combined = ds.combined();
    println!(
        "{} records across two snapshots, {} true entities, {} true duplicate pairs",
        combined.len(),
        ds.truth.entity_count(),
        ds.truth.true_pair_count()
    );

    // --- Candidate generation: SNM over each tuple's most probable key
    // (Fig. 10), next to per-alternative blocking (Fig. 14).
    let spec = KeySpec::new(vec![KeyPart::prefix(0, 4), KeyPart::prefix(2, 2)]);
    let comparators = AttributeComparators::uniform(&ds.schema, JaroWinkler::new());
    let mpk = ConflictResolution::MostProbableKey;
    let (candidates, _) = conflict_resolved_snm(combined.xtuples(), &spec, 12, mpk);
    let blocked = block_alternatives(combined.xtuples(), &spec);
    println!(
        "candidate pairs after reduction: {} (conflict-resolved SNM; blocking would give {} in {} blocks)",
        candidates.len(),
        blocked.pairs.len(),
        blocked.blocks.len()
    );

    // --- Unsupervised Fellegi–Sunter fit on the candidates. -------------
    // Comparison vectors of candidate pairs via per-attribute expected
    // similarity of the *marginalized* tuples (the classical FS view).
    let marginals: Vec<probdedup::model::tuple::ProbTuple> =
        combined.xtuples().iter().map(marginalize_xtuple).collect();
    let vectors: Vec<Vec<f64>> = candidates
        .pairs()
        .iter()
        .map(|&(i, j)| compare_tuples(&marginals[i], &marginals[j], &comparators))
        .collect();
    let patterns = binarize(&vectors, 0.8);
    let em = fit_em(&patterns, &EmConfig::default()).expect("EM fit");
    println!(
        "\nEM fit: converged = {} after {} iterations, match proportion = {:.4}",
        em.converged, em.iterations, em.match_proportion
    );
    let mut table = Table::new(&["attribute", "m", "u", "log2(m/u)"]);
    for (i, name) in ["name", "job", "city", "age"].iter().enumerate() {
        table.row(&[
            name.to_string(),
            format!("{:.3}", em.model.m()[i]),
            format!("{:.3}", em.model.u()[i]),
            format!("{:+.2}", (em.model.m()[i] / em.model.u()[i]).log2()),
        ]);
    }
    println!("{table}");

    // --- Optimal thresholds from error bounds (μ = λ = 0.01). Tight
    // bounds widen the clerical-review band — the Fellegi–Sunter trade-off.
    let thresholds = em
        .model
        .optimal_thresholds(0.01, 0.01)
        .expect("threshold selection");
    println!(
        "\nFS thresholds on the matching weight: T_λ = {:.4}, T_μ = {:.1}",
        thresholds.lambda(),
        thresholds.mu()
    );
    let fs_model = FsModel::new(em.model.clone(), thresholds);

    // Classify candidates with the FS model (certain-data decision model
    // over the marginalized comparison vectors).
    let truth = ds.truth.true_pairs();
    let n = combined.len();
    let mut predicted: std::collections::HashSet<(usize, usize)> = Default::default();
    let mut with_review: std::collections::HashSet<(usize, usize)> = Default::default();
    for (&(i, j), c) in candidates.pairs().iter().zip(&vectors) {
        match fs_model.decide(c).1 {
            MatchClass::Match => {
                predicted.insert((i, j));
                with_review.insert((i, j));
            }
            MatchClass::Possible => {
                with_review.insert((i, j));
            }
            MatchClass::NonMatch => {}
        }
    }
    let fs_metrics =
        EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(&predicted, &truth, n));
    let review_metrics = EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(
        &with_review,
        &truth,
        n,
    ));
    println!(
        "FS auto-matches only: {} matches → {}",
        predicted.len(),
        fs_metrics
    );
    println!(
        "FS matches + clerical review resolved correctly: {} pairs → {}",
        with_review.len(),
        review_metrics
    );

    // --- End-to-end x-tuple pipeline with a decision-based derivation. ---
    let pipeline = DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(comparators.clone())
        .model(Arc::new(DecisionBasedModel::new(
            Arc::new(WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).expect("weights")),
            Thresholds::new(0.7, 0.88).expect("inner"),
            Arc::new(ExpectedMatchingResult::new()),
            Thresholds::new(0.9, 1.7).expect("outer, [0,2] scale"),
        )))
        .reduction(ReductionStrategy::ConflictResolved {
            spec,
            window: 8,
            strategy: mpk,
        })
        .threads(4)
        .build();
    let sources: Vec<&probdedup::model::relation::XRelation> = ds.relations.iter().collect();
    let result = pipeline.run(&sources).expect("run");
    let pm = EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(
        &result.match_pair_set(),
        &truth,
        n,
    ));
    println!(
        "\nx-tuple pipeline (E(η) derivation): {} matches, {} possible → {}",
        result.matches().count(),
        result.possible_matches().count(),
        pm
    );

    // --- The paper's conclusion: a probabilistic result relation. --------
    let prob = probabilistic_result(&result, false);
    println!(
        "\nprobabilistic result: {} rows, {} mutually-exclusive-set constraints",
        prob.relation.len(),
        prob.constraints.len()
    );
    if let Some(sets) = prob.constraints.first() {
        println!("first constraint (merged ⊕ originals):");
        for (rows, p) in sets.options() {
            println!("  rows {rows:?} with probability {p:.3}");
        }
    }

    // Sanity check used by the smoke test harness: the FS auto-match
    // region must be high-precision (that is its design goal; recall is
    // deliberately routed to clerical review under tight error bounds).
    let _ = compare_xtuples(
        combined.xtuples().first().expect("rows"),
        combined.xtuples().last().expect("rows"),
        &comparators,
    );
    assert!(
        fs_metrics.precision > 0.3,
        "FS auto-match precision unexpectedly low"
    );
    assert!(
        review_metrics.recall > fs_metrics.recall,
        "clerical review must add recall"
    );
}

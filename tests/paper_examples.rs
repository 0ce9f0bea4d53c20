//! Cross-crate integration tests: every number the paper derives in its
//! worked examples, recomputed end to end through the public API.

use std::sync::Arc;

use probdedup::decision::combine::{CombinationFunction, WeightedSum};
use probdedup::decision::derive_decision::{ExpectedMatchingResult, MatchingWeightDerivation};
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::decision::xmodel::{DecisionBasedModel, SimilarityBasedModel, XTupleDecisionModel};
use probdedup::matching::matrix::compare_xtuples;
use probdedup::matching::pvalue_sim::pvalue_similarity;
use probdedup::matching::value_cmp::ValueComparator;
use probdedup::matching::vector::{compare_tuples, AttributeComparators};
use probdedup::model::condition::existence_event_probability;
use probdedup::model::world::enumerate_worlds;
use probdedup::paper::{self, rows};
use probdedup::reduction::{
    block_alternatives, conflict_resolved_snm, ranked_snm, sorting_alternatives,
    ConflictResolution, RankingFunction,
};
use probdedup::textsim::{NormalizedHamming, StringComparator};

const EPS: f64 = 1e-12;

fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(&paper::schema(), NormalizedHamming::new())
}

/// Section IV-A: the three string-kernel values the examples rely on.
#[test]
fn section4a_kernel_values() {
    let h = NormalizedHamming::new();
    assert!((h.similarity("Tim", "Kim") - 2.0 / 3.0).abs() < EPS);
    assert!((h.similarity("machinist", "mechanic") - 5.0 / 9.0).abs() < EPS);
    assert!((h.similarity("Jim", "Tom") - 1.0 / 3.0).abs() < EPS);
}

/// Fig. 2: with T_λ = 0.4 and T_μ = 0.7 a pair below T_λ is a non-match
/// (u), between the thresholds a possible match (p), at or above T_μ a
/// match (m).
#[test]
fn fig2_classification_bands() {
    let t = Thresholds::new(0.4, 0.7).unwrap();
    assert_eq!(t.classify(0.30).to_string(), "u");
    assert_eq!(t.classify(0.55).to_string(), "p");
    assert_eq!(t.classify(0.80).to_string(), "m");
}

/// Section IV-A: sim(t11.name, t22.name) = 0.9 and
/// sim(t11.job, t22.job) = 53/90 ≈ 0.59 via Eq. 5.
#[test]
fn section4a_attribute_similarities() {
    let r1 = paper::fig4_r1();
    let r2 = paper::fig4_r2();
    let cmp = ValueComparator::text(NormalizedHamming::new());
    let t11 = &r1.tuples()[0];
    let t22 = &r2.tuples()[1];
    assert!((pvalue_similarity(t11.value(0), t22.value(0), &cmp) - 0.9).abs() < EPS);
    assert!((pvalue_similarity(t11.value(1), t22.value(1), &cmp) - 53.0 / 90.0).abs() < EPS);
}

/// Section IV-A: φ(c⃗) = 0.8·c₁ + 0.2·c₂ gives sim(t11, t22) = 377/450
/// (the paper prints 0.838 after rounding c₂ to 0.59).
#[test]
fn section4a_tuple_similarity() {
    let r1 = paper::fig4_r1();
    let r2 = paper::fig4_r2();
    let c = compare_tuples(&r1.tuples()[0], &r2.tuples()[1], &comparators());
    let phi = WeightedSum::new([0.8, 0.2]).unwrap();
    let sim = phi.combine(&c);
    assert!((sim - 377.0 / 450.0).abs() < EPS);
    assert!((sim - 0.838).abs() < 1e-3);
}

/// Fig. 7: the eight worlds of (t32, t42), their probabilities, and
/// P(B) = 0.72.
#[test]
fn fig7_possible_worlds() {
    let r34 = paper::r34();
    let pair = [
        r34.get(rows::T32).unwrap().clone(),
        r34.get(rows::T42).unwrap().clone(),
    ];
    let worlds = enumerate_worlds(&pair, 100).unwrap();
    assert_eq!(worlds.len(), 8);
    let mut probs: Vec<f64> = worlds.iter().map(|w| w.probability).collect();
    probs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut expected = [0.24, 0.16, 0.32, 0.08, 0.06, 0.04, 0.08, 0.02];
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (got, want) in probs.iter().zip(expected.iter()) {
        assert!((got - want).abs() < EPS, "{got} vs {want}");
    }
    assert!((existence_event_probability(&pair) - 0.72).abs() < EPS);
}

/// Fig. 7 similarity-based walkthrough: the alternative-pair similarities
/// 11/15, 7/15, 4/15 and the Eq. 6 expectation 7/15.
#[test]
fn fig7_similarity_based_derivation() {
    let r34 = paper::r34();
    let t32 = r34.get(rows::T32).unwrap();
    let t42 = r34.get(rows::T42).unwrap();
    let matrix = compare_xtuples(t32, t42, &comparators());
    let phi = WeightedSum::new([0.8, 0.2]).unwrap();
    let sims: Vec<f64> = matrix.iter().map(|(_, _, c)| phi.combine(c)).collect();
    assert!((sims[0] - 11.0 / 15.0).abs() < EPS);
    assert!((sims[1] - 7.0 / 15.0).abs() < EPS);
    assert!((sims[2] - 4.0 / 15.0).abs() < EPS);

    let model = SimilarityBasedModel::new(
        Arc::new(phi),
        Arc::new(ExpectedSimilarity),
        Thresholds::new(0.4, 0.7).unwrap(),
    );
    let d = model.decide(t32, t42, &matrix);
    assert!((d.similarity - 7.0 / 15.0).abs() < EPS);
    assert_eq!(d.class, MatchClass::Possible);
}

/// Fig. 7 decision-based walkthrough: P(m) = 3/9, P(u) = 4/9,
/// sim = 0.75; and the sketched E(η) = 8/9.
#[test]
fn fig7_decision_based_derivation() {
    let r34 = paper::r34();
    let t32 = r34.get(rows::T32).unwrap();
    let t42 = r34.get(rows::T42).unwrap();
    let matrix = compare_xtuples(t32, t42, &comparators());
    let phi: Arc<dyn CombinationFunction> = Arc::new(WeightedSum::new([0.8, 0.2]).unwrap());

    let weight_model = DecisionBasedModel::new(
        phi.clone(),
        Thresholds::new(0.4, 0.7).unwrap(),
        Arc::new(MatchingWeightDerivation::new()),
        Thresholds::new(0.5, 2.0).unwrap(),
    );
    let d = weight_model.decide(t32, t42, &matrix);
    assert!((d.similarity - 0.75).abs() < EPS);

    let e_model = DecisionBasedModel::new(
        phi,
        Thresholds::new(0.4, 0.7).unwrap(),
        Arc::new(ExpectedMatchingResult::new()),
        Thresholds::new(0.9, 1.7).unwrap(),
    );
    let d = e_model.decide(t32, t42, &matrix);
    assert!((d.similarity - 8.0 / 9.0).abs() < EPS);
}

/// Fig. 10: conflict-resolved sorting produces Jimba, Johpi, Johpi, Seapi,
/// Tomme — and its matchings are a subset of the all-worlds multi-pass.
#[test]
fn fig10_conflict_resolved_order() {
    let r34 = paper::r34();
    let (_, order) = conflict_resolved_snm(
        r34.xtuples(),
        &paper::sorting_key(),
        2,
        ConflictResolution::MostProbableAlternative,
    );
    let keys: Vec<&str> = order.iter().map(|e| e.key.as_str()).collect();
    assert_eq!(keys, vec!["Jimba", "Johpi", "Johpi", "Seapi", "Tomme"]);
    let tuples: Vec<usize> = order.iter().map(|e| e.tuple).collect();
    assert_eq!(
        tuples,
        vec![rows::T32, rows::T31, rows::T41, rows::T43, rows::T42]
    );
}

/// Fig. 11: sorting alternatives with window 2 executes exactly the five
/// matchings listed in the paper.
#[test]
fn fig11_sorting_alternatives_five_matchings() {
    let r34 = paper::r34();
    let r = sorting_alternatives(r34.xtuples(), &paper::sorting_key(), 2);
    assert_eq!(
        r.pairs.pairs(),
        &[
            (rows::T32, rows::T43),
            (rows::T31, rows::T43),
            (rows::T31, rows::T41),
            (rows::T41, rows::T43),
            (rows::T32, rows::T42),
        ]
    );
}

/// Fig. 13: the probabilistic key values and the ranked order.
#[test]
fn fig13_uncertain_keys_and_ranking() {
    let r34 = paper::r34();
    let spec = paper::sorting_key();
    // t31 keys: Johpi 0.7, Johmu 0.3.
    let mut k31 = spec.xtuple_keys(r34.get(rows::T31).unwrap());
    k31.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(k31[0].0, "Johmu");
    assert!((k31[0].1 - 0.3).abs() < EPS);
    // t41: certain key despite two alternatives.
    let k41 = spec.xtuple_keys(r34.get(rows::T41).unwrap());
    assert_eq!(k41.len(), 1);
    assert!((k41[0].1 - 1.0).abs() < EPS);
    // t43: Joh 0.2, Seapi 0.6 (masses sum to p(t) = 0.8).
    let mut k43 = spec.xtuple_keys(r34.get(rows::T43).unwrap());
    k43.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(k43[0], ("Joh".to_string(), 0.2));
    // Ranked order: t32, t31, t41, t43, t42.
    let (_, order) = ranked_snm(r34.xtuples(), &spec, 2, RankingFunction::MostProbableKey);
    assert_eq!(
        order,
        vec![rows::T32, rows::T31, rows::T41, rows::T43, rows::T42]
    );
}

/// Fig. 14: blocking with alternative keys yields six blocks and three
/// matchings on ℛ34.
#[test]
fn fig14_blocking() {
    let r34 = paper::r34();
    let r = block_alternatives(r34.xtuples(), &paper::blocking_key());
    assert_eq!(r.blocks.len(), 6);
    assert_eq!(
        r.pairs.pairs(),
        &[
            (rows::T31, rows::T32),
            (rows::T31, rows::T41),
            (rows::T32, rows::T42),
        ]
    );
}

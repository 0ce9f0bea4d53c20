//! Bounded-equals-exact classification: the headline guarantee of the
//! threshold-driven bounded evaluation path.
//!
//! For generated schemas (uncertain values, multi-alternative x-tuples,
//! ⊥ mass, typo-adjacent strings) the classify-only pipeline mode must
//! produce **the same match / possible / non-match partition, in the same
//! candidate order**, as the exact similarity-based model — and both as
//! the paper-literal reference (`compare_xtuples` + `decide` straight off
//! the x-tuples, `probdedup::core::test_support`) — with thresholds chosen as midpoints between *observed* similarity values so
//! every case exercises all three Fellegi–Sunter bands and no similarity
//! sits inside the certificate margin of a threshold.

use std::sync::Arc;

use proptest::prelude::*;

use probdedup::core::pipeline::ReductionStrategy;
use probdedup::core::test_support::{
    assert_classes_agree_with_reference, assert_exact_agrees_with_reference,
};
use probdedup::core::DedupPipeline;
use probdedup::decision::budget::CERT_MARGIN;
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::decision::xmodel::SimilarityBasedModel;
use probdedup::matching::vector::AttributeComparators;
use probdedup::matching::ValueComparator;
use probdedup::model::pvalue::PValue;
use probdedup::model::relation::XRelation;
use probdedup::model::schema::Schema;
use probdedup::model::xtuple::XTuple;
use probdedup::textsim::{JaroWinkler, Levenshtein, NormalizedHamming};

fn schema() -> Schema {
    Schema::new(["name", "job"])
}

/// A small, typo-adjacent vocabulary — similar strings keep many pairs
/// near the decision boundary (the shim's pattern strategies support no
/// alternation, so the vocabulary is indexed explicitly).
const VOCAB: &[&str] = &[
    "Tim",
    "Tom",
    "Jim",
    "Timmy",
    "John",
    "Johan",
    "Johann",
    "pilot",
    "pil0t",
    "pilots",
    "baker",
    "bakker",
    "mechanic",
    "machinist",
    "garcia",
];

/// One uncertain attribute value over [`VOCAB`].
fn arb_pvalue() -> impl Strategy<Value = PValue> {
    proptest::collection::vec((0usize..VOCAB.len(), 1u32..40), 1..3).prop_map(|alts| {
        let total: u32 = alts.iter().map(|(_, w)| *w).sum();
        let denom = f64::from(total) * 1.15; // leave some ⊥ mass
                                             // Merge repeated vocabulary draws (categorical wants distinct
                                             // values).
        let mut merged = std::collections::BTreeMap::<usize, f64>::new();
        for (vi, w) in alts {
            *merged.entry(vi).or_insert(0.0) += f64::from(w) / denom;
        }
        PValue::categorical(merged.into_iter().map(|(vi, p)| (VOCAB[vi], p))).unwrap()
    })
}

fn arb_xtuple() -> impl Strategy<Value = XTuple> {
    proptest::collection::vec((arb_pvalue(), arb_pvalue(), 1u32..40), 1..3).prop_map(|alts| {
        let total: u32 = alts.iter().map(|(_, _, w)| *w).sum();
        let denom = f64::from(total) * 1.1;
        let s = schema();
        let mut b = XTuple::builder(&s);
        for (name, job, w) in alts {
            b = b.alt_pvalues(f64::from(w) / denom, [name, job]);
        }
        b.build().unwrap()
    })
}

fn arb_relation() -> impl Strategy<Value = XRelation> {
    proptest::collection::vec(arb_xtuple(), 3..8).prop_map(|tuples| {
        let mut r = XRelation::new(schema());
        for t in tuples {
            r.push(t);
        }
        r
    })
}

/// Pick thresholds as midpoints between observed (sorted, distinct)
/// similarities so that all three bands are populated and no observed
/// value lies within the certificate margin of a threshold. Returns `None`
/// when fewer than three sufficiently-distinct values were observed.
fn band_splitting_thresholds(sims: &[f64]) -> Option<Thresholds> {
    let mut distinct: Vec<f64> = sims.to_vec();
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite sims"));
    distinct.dedup_by(|b, a| (*b - *a).abs() < 10.0 * CERT_MARGIN);
    if distinct.len() < 3 {
        return None;
    }
    // Split roughly into thirds.
    let lambda = (distinct[distinct.len() / 3 - 1] + distinct[distinct.len() / 3]) / 2.0;
    let hi_idx = 2 * distinct.len() / 3;
    let mu = (distinct[hi_idx - 1] + distinct[hi_idx]) / 2.0;
    Thresholds::new(lambda, mu).ok()
}

fn check_kernel(comparators: AttributeComparators, relation: &XRelation) {
    let phi = WeightedSum::new([0.7, 0.3]).unwrap();
    // First pass with throwaway thresholds to observe the similarity
    // distribution (the exact degrees are threshold-independent).
    let probe = DedupPipeline::builder()
        .comparators(comparators.clone())
        .model(Arc::new(SimilarityBasedModel::new(
            Arc::new(phi.clone()),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.0, 0.0).unwrap(),
        )))
        .reduction(ReductionStrategy::Full)
        .build()
        .run(&[relation])
        .expect("probe run");
    let sims: Vec<f64> = probe.decisions.iter().map(|d| d.similarity).collect();
    let Some(thresholds) = band_splitting_thresholds(&sims) else {
        return; // degenerate draw: too few distinct similarities
    };
    let model = Arc::new(SimilarityBasedModel::new(
        Arc::new(phi.clone()),
        Arc::new(ExpectedSimilarity),
        thresholds,
    ));
    let exact = DedupPipeline::builder()
        .comparators(comparators.clone())
        .model(model.clone())
        .reduction(ReductionStrategy::Full)
        .build()
        .run(&[relation])
        .expect("exact run");
    assert_exact_agrees_with_reference(&exact, &comparators, model.as_ref(), "exact");
    // All three bands hit by construction.
    for class in [
        MatchClass::Match,
        MatchClass::Possible,
        MatchClass::NonMatch,
    ] {
        assert!(
            exact.decisions.iter().any(|d| d.class == class),
            "band {class} empty despite band-splitting thresholds"
        );
    }
    let bounded = DedupPipeline::builder()
        .comparators(comparators.clone())
        .classify_only(phi.clone(), thresholds)
        .reduction(ReductionStrategy::Full)
        .build()
        .run(&[relation])
        .expect("bounded run");
    assert_classes_agree_with_reference(&bounded, &comparators, model.as_ref(), "bounded");
    assert_eq!(exact.decisions.len(), bounded.decisions.len());
    for (x, y) in exact.decisions.iter().zip(&bounded.decisions) {
        // Same candidate ordering, same partition.
        assert_eq!(x.pair, y.pair);
        assert_eq!(
            x.class, y.class,
            "pair {:?}: exact sim {} vs bounded representative {}",
            x.pair, x.similarity, y.similarity
        );
        // The certified representative classifies identically.
        assert_eq!(thresholds.classify(y.similarity), y.class);
    }
    assert_eq!(exact.clusters, bounded.clusters);
    // The tier counters partition the candidate set.
    let s = &bounded.stats;
    assert_eq!(
        s.pairs_early_match + s.pairs_early_nonmatch + s.pairs_early_possible + s.pairs_exhausted,
        bounded.candidates as u64
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bounded classification is identical to exact classification under
    /// the paper's normalized Hamming kernel.
    #[test]
    fn bounded_equals_exact_hamming(r in arb_relation()) {
        check_kernel(AttributeComparators::uniform(&schema(), NormalizedHamming::new()), &r);
    }

    /// … under Levenshtein, whose bounded entry point is the trait
    /// default: every kernel value exact, no kernel certificate.
    #[test]
    fn bounded_equals_exact_levenshtein(r in arb_relation()) {
        check_kernel(AttributeComparators::uniform(&schema(), Levenshtein::new()), &r);
    }

    /// … under Jaro-Winkler, the workload kernel of the benchmarks, whose
    /// length and class-mask prefilter is where kernel certificates come
    /// from.
    #[test]
    fn bounded_equals_exact_jaro_winkler(r in arb_relation()) {
        check_kernel(AttributeComparators::uniform(&schema(), JaroWinkler::new()), &r);
    }

    /// … under a different kernel per attribute: Levenshtein on `name`
    /// next to Hamming on `job`, each attribute's cuts handed to its own
    /// kernel.
    #[test]
    fn bounded_equals_exact_mixed_kernels(r in arb_relation()) {
        let comparators = AttributeComparators::per_attribute(vec![
            ValueComparator::text(Levenshtein::new()),
            ValueComparator::text(NormalizedHamming::new()),
        ]);
        check_kernel(comparators, &r);
    }
}

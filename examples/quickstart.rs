//! Quickstart: deduplicate the paper's two example relations end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds ℛ1 and ℛ2 (Fig. 4 of Panse et al., ICDE 2010), runs the full
//! pipeline — preparation, search-space reduction, expected-similarity
//! matching (Eq. 5), similarity-based x-tuple decisions (Eq. 6) — and
//! prints the matches, possible matches and duplicate clusters.

use std::sync::Arc;

use probdedup::core::pipeline::{DedupPipeline, ReductionStrategy};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::SimilarityBasedModel;
use probdedup::matching::vector::AttributeComparators;
use probdedup::paper;
use probdedup::textsim::NormalizedHamming;

fn main() {
    // The paper's probabilistic relations (Fig. 4), converted to the
    // x-tuple view the pipeline consumes.
    let r1 = paper::fig4_r1().to_x_relation();
    let r2 = paper::fig4_r2().to_x_relation();
    println!("ℛ1 ({} tuples) and ℛ2 ({} tuples)", r1.len(), r2.len());
    for (label, r) in [("ℛ1", &r1), ("ℛ2", &r2)] {
        for (i, t) in r.xtuples().iter().enumerate() {
            println!("  {label}[{i}] = {t}");
        }
    }

    // φ(c⃗) = 0.8·c_name + 0.2·c_job — the paper's combination function —
    // over normalized-Hamming attribute matching, with thresholds
    // T_λ = 0.6, T_μ = 0.8.
    let pipeline = DedupPipeline::builder()
        .comparators(AttributeComparators::uniform(
            &paper::schema(),
            NormalizedHamming::new(),
        ))
        .model(Arc::new(SimilarityBasedModel::new(
            Arc::new(WeightedSum::new([0.8, 0.2]).expect("weights")),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.6, 0.8).expect("thresholds"),
        )))
        .reduction(ReductionStrategy::Full)
        .build();

    let result = pipeline.run(&[&r1, &r2]).expect("compatible schemas");

    println!("\n{}", result.summary());
    println!("\ndecisions (m = match, p = possible, u = non-match):");
    for d in &result.decisions {
        // `PairDecision` displays combined-relation row indices; map them
        // back to sources with `result.handle(row)` when needed.
        println!("  {d}");
    }

    println!("\nmatches:");
    for d in result.matches() {
        println!(
            "  {} ↔ {}",
            result.handle(d.pair.0),
            result.handle(d.pair.1)
        );
    }
    println!("\npossible matches (clerical review):");
    for d in result.possible_matches() {
        println!(
            "  {} ↔ {}  (sim {:.3})",
            result.handle(d.pair.0),
            result.handle(d.pair.1),
            d.similarity
        );
    }
    println!("\nduplicate clusters:");
    for cluster in &result.clusters {
        let members: Vec<String> = cluster
            .iter()
            .map(|&r| result.handle(r).to_string())
            .collect();
        println!("  {{{}}}", members.join(", "));
    }

    // The Section IV-A spot check: sim(t11, t22) = 0.8·0.9 + 0.2·(53/90).
    let spot = result
        .decisions
        .iter()
        .find(|d| d.pair == (0, 4))
        .expect("t11/t22 compared");
    println!(
        "\npaper spot check: sim(t11, t22) = {:.4} (paper: 0.838 with rounded job similarity)",
        spot.similarity
    );

    // The same dedup through the **persistent front door**: a session
    // ingests the sources one at a time — only new-vs-resident candidate
    // pairs are classified per batch, warm interner pools and similarity
    // caches persist — and the merged view equals the one-shot run.
    let mut session = DedupPipeline::builder()
        .comparators(AttributeComparators::uniform(
            &paper::schema(),
            NormalizedHamming::new(),
        ))
        .model(Arc::new(SimilarityBasedModel::new(
            Arc::new(WeightedSum::new([0.8, 0.2]).expect("weights")),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.6, 0.8).expect("thresholds"),
        )))
        .build_session();
    println!("\nincremental ingest through a DedupSession:");
    for (label, r) in [("ℛ1", &r1), ("ℛ2", &r2)] {
        let step = session.ingest(r).expect("compatible schemas");
        println!("  {label}: {}", step.summary());
    }
    let merged = session.result();
    println!("  merged: {}", merged.summary());
    assert_eq!(merged.clusters, result.clusters, "session == one-shot");
}

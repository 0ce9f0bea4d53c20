//! Every worked example of the paper, recomputed and printed next to the
//! paper's figures.
//!
//! ```text
//! cargo run --example paper_walkthrough
//! ```
//!
//! Sections: Fig. 4 attribute matching (Eqs. 4/5), Fig. 7 possible worlds
//! and both derivations (Eqs. 6–9), Figs. 9–13 SNM adaptations, Fig. 14
//! blocking. The same computations back the integration tests
//! (`tests/paper_examples.rs`); this example narrates them.
//!
//! All SNM/blocking calls below run on the **interned key path**: keys are
//! rendered once into a `KeyPool` (`Symbol`-backed, see
//! `probdedup::reduction::key::KeyTable`), multi-pass methods sort by
//! precomputed rank from the second pass on, and the key strings printed
//! here are resolved from the pool for display only.

use std::sync::Arc;

use probdedup::decision::combine::{CombinationFunction, WeightedSum};
use probdedup::decision::derive_decision::MatchingWeightDerivation;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::{DecisionBasedModel, SimilarityBasedModel, XTupleDecisionModel};
use probdedup::matching::matrix::compare_xtuples;
use probdedup::matching::pvalue_sim::pvalue_similarity;
use probdedup::matching::value_cmp::ValueComparator;
use probdedup::matching::vector::{compare_tuples, AttributeComparators};
use probdedup::model::world::enumerate_worlds;
use probdedup::paper::{self, rows};
use probdedup::reduction::{
    block_alternatives, conflict_resolved_snm, multipass_snm, ranked_snm, sorting_alternatives,
    ConflictResolution, RankingFunction, WorldSelection,
};
use probdedup::textsim::NormalizedHamming;

fn main() {
    fig4_attribute_matching();
    fig7_worlds_and_derivations();
    fig9_to_13_snm();
    fig14_blocking();
}

fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(&paper::schema(), NormalizedHamming::new())
}

fn fig4_attribute_matching() {
    println!("=== Fig. 4 / Section IV-A: attribute value matching ===");
    let r1 = paper::fig4_r1();
    let r2 = paper::fig4_r2();
    let t11 = &r1.tuples()[0];
    let t22 = &r2.tuples()[1];
    let cmp = ValueComparator::text(NormalizedHamming::new());

    let sim_name = pvalue_similarity(t11.value(0), t22.value(0), &cmp);
    let sim_job = pvalue_similarity(t11.value(1), t22.value(1), &cmp);
    println!("sim(t11.name, t22.name) = {sim_name:.3}   (paper: 0.9)");
    println!("sim(t11.job,  t22.job)  = {sim_job:.5}  (paper: 0.59, rounded from 53/90)");

    let c = compare_tuples(t11, t22, &comparators());
    let phi = WeightedSum::new([0.8, 0.2]).expect("weights");
    println!(
        "φ(c⃗) = 0.8·{:.3} + 0.2·{:.5} = {:.4}   (paper: 0.838)",
        c[0],
        c[1],
        phi.combine(&c)
    );
    println!();
}

fn fig7_worlds_and_derivations() {
    println!("=== Fig. 7 / Section IV-B: possible worlds of (t32, t42) ===");
    let r34 = paper::r34();
    let t32 = r34.get(rows::T32).expect("t32").clone();
    let t42 = r34.get(rows::T42).expect("t42").clone();
    let pair = [t32.clone(), t42.clone()];

    let worlds = enumerate_worlds(&pair, 100).expect("8 worlds");
    println!("{} possible worlds:", worlds.len());
    for (i, w) in worlds.iter().enumerate() {
        let desc: Vec<String> = w
            .choices
            .iter()
            .zip(["t32", "t42"])
            .map(|(c, l)| match c {
                Some(a) => format!("{l}={}", a + 1),
                None => format!("{l}=∅"),
            })
            .collect();
        println!(
            "  I{} [{}]  P = {:.2}",
            i + 1,
            desc.join(", "),
            w.probability
        );
    }
    let pb = probdedup::model::condition::existence_event_probability(&pair);
    println!("P(B) = {pb:.2}   (paper: 0.72)");

    let matrix = compare_xtuples(&t32, &t42, &comparators());
    let phi: Arc<dyn CombinationFunction> = Arc::new(WeightedSum::new([0.8, 0.2]).expect("w"));

    let sim_model = SimilarityBasedModel::new(
        phi.clone(),
        Arc::new(ExpectedSimilarity),
        Thresholds::new(0.4, 0.7).expect("thresholds"),
    );
    let d = sim_model.decide(&t32, &t42, &matrix);
    println!(
        "similarity-based (Eq. 6): sim(t32, t42) = {:.6} = 7/15 → {}   (paper: 7/15)",
        d.similarity, d.class
    );

    let dec_model = DecisionBasedModel::new(
        phi,
        Thresholds::new(0.4, 0.7).expect("inner"),
        Arc::new(MatchingWeightDerivation::new()),
        Thresholds::new(0.5, 2.0).expect("outer"),
    );
    let d = dec_model.decide(&t32, &t42, &matrix);
    println!(
        "decision-based (Eqs. 7-9): P(m)/P(u) = {:.2} → {}   (paper: 0.75)",
        d.similarity, d.class
    );
    println!();
}

fn fig9_to_13_snm() {
    let r34 = paper::r34();
    let tuples = r34.xtuples();
    let spec = paper::sorting_key();
    let labels = ["t31", "t32", "t41", "t42", "t43"];
    let show = |pairs: &[(usize, usize)]| -> String {
        pairs
            .iter()
            .map(|&(i, j)| format!("({}, {})", labels[i], labels[j]))
            .collect::<Vec<_>>()
            .join(", ")
    };

    println!("=== Fig. 9 / Section V-A.1: multi-pass over possible worlds ===");
    // Keys are interned once before the first pass; pass 2 is sort-only
    // (zero key renders — see reduction's interned_oracle tests).
    let mp = multipass_snm(tuples, &spec, 2, WorldSelection::TopK(2));
    for (world, order) in &mp.passes {
        let keys: Vec<String> = order
            .iter()
            .map(|e| format!("{}:{}", e.key, labels[e.tuple]))
            .collect();
        println!("  world P={:.4}: {}", world.probability, keys.join("  "));
    }
    println!("  union of matchings: {}", show(mp.pairs.pairs()));

    println!("=== Fig. 10 / Section V-A.2: conflict-resolved certain keys ===");
    let (pairs, order) = conflict_resolved_snm(
        tuples,
        &spec,
        2,
        ConflictResolution::MostProbableAlternative,
    );
    let keys: Vec<String> = order
        .iter()
        .map(|e| format!("{}:{}", e.key, labels[e.tuple]))
        .collect();
    println!("  sorted keys: {}", keys.join("  "));
    println!("  matchings: {}", show(pairs.pairs()));

    println!("=== Fig. 11/12 / Section V-A.3: sorting alternatives ===");
    let sa = sorting_alternatives(tuples, &spec, 2);
    let keys: Vec<String> = sa
        .order
        .iter()
        .map(|e| format!("{}:{}", e.key, labels[e.tuple]))
        .collect();
    println!("  collapsed sorted entries: {}", keys.join("  "));
    println!(
        "  matchings (each executed once via the Fig. 12 matrix): {}",
        show(sa.pairs.pairs())
    );
    println!("  (paper: five matchings)");

    println!("=== Fig. 13 / Section V-A.4: uncertain keys + ranking ===");
    for t in tuples {
        let keys = spec.xtuple_keys(t);
        let rendered: Vec<String> = keys.iter().map(|(k, p)| format!("{k} ({p:.1})")).collect();
        println!("  {}: {}", t.label().unwrap_or("?"), rendered.join(", "));
    }
    let (pairs, order) = ranked_snm(tuples, &spec, 2, RankingFunction::MostProbableKey);
    let ranked: Vec<&str> = order.iter().map(|&i| labels[i]).collect();
    println!(
        "  ranked order: {}   (paper: t32, t31, t41, t43, t42)",
        ranked.join(", ")
    );
    println!("  matchings: {}", show(pairs.pairs()));
    println!();
}

fn fig14_blocking() {
    println!("=== Fig. 14 / Section V-B: blocking with alternative keys ===");
    let r34 = paper::r34();
    let labels = ["t31", "t32", "t41", "t42", "t43"];
    let r = block_alternatives(r34.xtuples(), &paper::blocking_key());
    for (key, members) in &r.blocks {
        let names: Vec<&str> = members.iter().map(|&i| labels[i]).collect();
        println!("  block {key:>2}: {}", names.join(", "));
    }
    let shown: Vec<String> = r
        .pairs
        .pairs()
        .iter()
        .map(|&(i, j)| format!("({}, {})", labels[i], labels[j]))
        .collect();
    println!(
        "  matchings: {}   (paper: three matchings)",
        shown.join(", ")
    );
}

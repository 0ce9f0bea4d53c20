//! The experiment harness: regenerates every figure of the paper
//! (paper-vs-measured) and runs the quantitative experiments E1–E6
//! defined below (`--all` prints every figure and experiment).
//!
//! ```text
//! cargo run -p probdedup-bench --bin experiments --release -- --all
//! cargo run -p probdedup-bench --bin experiments --release -- --figure 7
//! cargo run -p probdedup-bench --bin experiments --release -- --exp reduction
//! ```

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use probdedup::decision::combine::{CombinationFunction, WeightedSum};
use probdedup::decision::derive_decision::{ExpectedMatchingResult, MatchingWeightDerivation};
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::em::{binarize, fit_em, EmConfig};
use probdedup::decision::rules::{Condition, Rule, RuleSet};
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::{DecisionBasedModel, SimilarityBasedModel, XTupleDecisionModel};
use probdedup::eval::sweep::{best_f1, grid, sweep_thresholds};
use probdedup::eval::{ConfusionCounts, EffectivenessMetrics, ReductionMetrics, Table};
use probdedup::matching::matrix::compare_xtuples;
use probdedup::matching::pvalue_sim::pvalue_similarity;
use probdedup::matching::value_cmp::ValueComparator;
use probdedup::matching::vector::{compare_tuples, AttributeComparators};
use probdedup::model::condition::existence_event_probability;
use probdedup::model::convert::marginalize_xtuple;
use probdedup::model::world::enumerate_worlds;
use probdedup::paper::{self, rows};
use probdedup::reduction::{
    block_alternatives, block_conflict_resolved, cluster_blocking, conflict_resolved_snm,
    multipass_snm, ranked_snm, sorting_alternatives, CandidatePairs, ClusterBlockingConfig,
    ConflictResolution, RankingFunction, WorldSelection,
};
use probdedup::textsim::{JaroWinkler, NormalizedHamming};
use probdedup_bench::{experiment_key, experiment_weights, workload};

const LABELS: [&str; 5] = ["t31", "t32", "t41", "t42", "t43"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figures: Vec<u32> = Vec::new();
    let mut experiments: Vec<String> = Vec::new();
    let mut all = args.is_empty();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--figure" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--figure N (1..=14)");
                figures.push(n);
            }
            "--exp" => {
                experiments.push(it.next().expect("--exp NAME").clone());
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    if all {
        figures = (1..=14).collect();
        experiments = ["reduction", "derivation", "worlds", "em", "keys"]
            .map(String::from)
            .to_vec();
    }
    for f in figures {
        figure(f);
    }
    for e in experiments {
        match e.as_str() {
            "reduction" => exp_reduction(),
            "derivation" => exp_derivation(),
            "worlds" => exp_worlds(),
            "em" => exp_em(),
            "keys" => exp_keys(),
            other => {
                panic!("unknown experiment {other:?} (reduction|derivation|worlds|em|keys)")
            }
        }
    }
}

fn check(name: &str, measured: f64, expected: f64, tol: f64) {
    let ok = (measured - expected).abs() <= tol;
    println!(
        "  {:<44} paper: {:<10} measured: {:<12.6} {}",
        name,
        format!("{expected:.6}"),
        measured,
        if ok { "✓" } else { "✗ MISMATCH" }
    );
    assert!(ok, "{name}: measured {measured} vs paper {expected}");
}

fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(&paper::schema(), NormalizedHamming::new())
}

fn figure(n: u32) {
    match n {
        1 => fig1(),
        2 => fig2(),
        3 => fig3(),
        4 => fig4(),
        5 => fig5(),
        6 => fig6(),
        7 => fig7(),
        8 => fig8(),
        9 => fig9(),
        10 => fig10(),
        11 => fig11(),
        12 => fig12(),
        13 => fig13(),
        14 => fig14(),
        other => panic!("the paper has figures 1..=14, not {other}"),
    }
    println!();
}

/// Fig. 1: the identification rule with certainty 0.8.
fn fig1() {
    println!("[F1] Fig. 1 — identification rule (knowledge-based)");
    let rule = Rule::new(vec![Condition::gt(0, 0.7), Condition::gt(1, 0.5)], 0.8).unwrap();
    let rs = RuleSet::new().with_rule(rule);
    check(
        "certainty when both conditions hold",
        rs.certainty(&[0.9, 0.59]),
        0.8,
        0.0,
    );
    check(
        "certainty when a condition fails",
        rs.certainty(&[0.9, 0.5]),
        0.0,
        0.0,
    );
}

/// Fig. 2: classification of tuple pairs into M, P, U by T_λ/T_μ.
fn fig2() {
    println!("[F2] Fig. 2 — M/P/U classification");
    let t = Thresholds::new(0.4, 0.7).unwrap();
    println!("  R < T_λ → u:  classify(0.30) = {}", t.classify(0.30));
    println!("  T_λ ≤ R < T_μ → p: classify(0.55) = {}", t.classify(0.55));
    println!("  R ≥ T_μ → m:  classify(0.80) = {}", t.classify(0.80));
    assert_eq!(t.classify(0.30).to_string(), "u");
    assert_eq!(t.classify(0.55).to_string(), "p");
    assert_eq!(t.classify(0.80).to_string(), "m");
}

/// Fig. 3: the general decision model — φ then classification.
fn fig3() {
    println!("[F3] Fig. 3 — φ(c⃗) then classification");
    let phi = WeightedSum::new([0.8, 0.2]).unwrap();
    let sim = phi.combine(&[0.9, 53.0 / 90.0]);
    let class = Thresholds::new(0.4, 0.7).unwrap().classify(sim);
    check("sim(t11, t22) = φ(c⃗)", sim, 377.0 / 450.0, 1e-12);
    println!("  η(t11, t22) = {class} (≥ T_μ = 0.7)");
    assert_eq!(class.to_string(), "m");
}

/// Fig. 4 + Section IV-A numbers.
fn fig4() {
    println!("[F4] Fig. 4 / Section IV-A — attribute value matching (Eq. 5)");
    let r1 = paper::fig4_r1();
    let r2 = paper::fig4_r2();
    let cmp = ValueComparator::text(NormalizedHamming::new());
    let t11 = &r1.tuples()[0];
    let t22 = &r2.tuples()[1];
    check(
        "sim(Tim, Kim) (α)",
        NormalizedHamming::new().distance("Tim", "Kim") as f64,
        1.0,
        0.0,
    );
    check(
        "sim(t11.name, t22.name)",
        pvalue_similarity(t11.value(0), t22.value(0), &cmp),
        0.9,
        1e-12,
    );
    check(
        "sim(machinist, mechanic)",
        {
            use probdedup::textsim::StringComparator;
            NormalizedHamming::new().similarity("machinist", "mechanic")
        },
        5.0 / 9.0,
        1e-12,
    );
    check(
        "sim(t11.job, t22.job) (paper rounds to 0.59)",
        pvalue_similarity(t11.value(1), t22.value(1), &cmp),
        53.0 / 90.0,
        1e-12,
    );
    let c = compare_tuples(t11, t22, &comparators());
    check(
        "sim(t11, t22) (paper rounds to 0.838)",
        WeightedSum::new([0.8, 0.2]).unwrap().combine(&c),
        377.0 / 450.0,
        1e-12,
    );
}

/// Fig. 5: the x-relations and their membership probabilities.
fn fig5() {
    println!("[F5] Fig. 5 — x-relations ℛ3 and ℛ4");
    let r34 = paper::r34();
    for (i, t) in r34.xtuples().iter().enumerate() {
        println!("  {} = {}", LABELS[i], t);
    }
    check(
        "p(t32)",
        r34.get(rows::T32).unwrap().probability(),
        0.9,
        1e-12,
    );
    check(
        "p(t42)",
        r34.get(rows::T42).unwrap().probability(),
        0.8,
        1e-12,
    );
    check(
        "p(t43)",
        r34.get(rows::T43).unwrap().probability(),
        0.8,
        1e-12,
    );
    assert!(r34.get(rows::T42).unwrap().is_maybe());
    assert!(r34.get(rows::T43).unwrap().is_maybe());
    println!("  maybe markers (?): t42, t43 ✓");
}

/// Fig. 6: both decision-model adaptations run on the same input.
fn fig6() {
    println!("[F6] Fig. 6 — similarity-based vs decision-based derivation");
    let r34 = paper::r34();
    let t32 = r34.get(rows::T32).unwrap();
    let t42 = r34.get(rows::T42).unwrap();
    let matrix = compare_xtuples(t32, t42, &comparators());
    let phi: Arc<dyn CombinationFunction> = Arc::new(WeightedSum::new([0.8, 0.2]).unwrap());
    let sim_based = SimilarityBasedModel::new(
        phi.clone(),
        Arc::new(ExpectedSimilarity),
        Thresholds::new(0.4, 0.7).unwrap(),
    )
    .decide(t32, t42, &matrix);
    let dec_based = DecisionBasedModel::new(
        phi,
        Thresholds::new(0.4, 0.7).unwrap(),
        Arc::new(MatchingWeightDerivation::new()),
        Thresholds::new(0.5, 2.0).unwrap(),
    )
    .decide(t32, t42, &matrix);
    check(
        "similarity-based sim(t32, t42)",
        sim_based.similarity,
        7.0 / 15.0,
        1e-12,
    );
    check(
        "decision-based sim(t32, t42)",
        dec_based.similarity,
        0.75,
        1e-12,
    );
    println!(
        "  classes: {} (similarity-based), {} (decision-based)",
        sim_based.class, dec_based.class
    );
}

/// Fig. 7: the eight possible worlds and their probabilities.
fn fig7() {
    println!("[F7] Fig. 7 — possible worlds of (t32, t42)");
    let r34 = paper::r34();
    let pair = [
        r34.get(rows::T32).unwrap().clone(),
        r34.get(rows::T42).unwrap().clone(),
    ];
    let worlds = enumerate_worlds(&pair, 100).unwrap();
    let p = |c1: Option<usize>, c2: Option<usize>| {
        worlds
            .iter()
            .find(|w| w.choices == vec![c1, c2])
            .map(|w| w.probability)
            .unwrap()
    };
    check("P(I1)", p(Some(0), Some(0)), 0.24, 1e-12);
    check("P(I2)", p(Some(1), Some(0)), 0.16, 1e-12);
    check("P(I3)", p(Some(2), Some(0)), 0.32, 1e-12);
    check("P(I4)", p(None, Some(0)), 0.08, 1e-12);
    check("P(I5)", p(Some(0), None), 0.06, 1e-12);
    check("P(I6)", p(Some(1), None), 0.04, 1e-12);
    check("P(I7)", p(Some(2), None), 0.08, 1e-12);
    check("P(I8)", p(None, None), 0.02, 1e-12);
    check("P(B)", existence_event_probability(&pair), 0.72, 1e-12);
    // The per-pair similarities behind Eq. 6.
    let matrix = compare_xtuples(&pair[0], &pair[1], &comparators());
    let phi = WeightedSum::new([0.8, 0.2]).unwrap();
    check(
        "sim(t32¹, t42)",
        phi.combine(matrix.vector(0, 0)),
        11.0 / 15.0,
        1e-12,
    );
    check(
        "sim(t32², t42)",
        phi.combine(matrix.vector(1, 0)),
        7.0 / 15.0,
        1e-12,
    );
    check(
        "sim(t32³, t42)",
        phi.combine(matrix.vector(2, 0)),
        4.0 / 15.0,
        1e-12,
    );
}

/// Fig. 8: two full worlds of ℛ34.
fn fig8() {
    println!("[F8] Fig. 8 — worlds of ℛ34 containing all tuples");
    let r34 = paper::r34();
    let full: Vec<_> = probdedup::model::world::full_worlds(r34.xtuples()).collect();
    // 2 · 3 · 2 · 1 · 2 = 24 full worlds.
    check("number of full worlds", full.len() as f64, 24.0, 0.0);
    let i1 = full
        .iter()
        .find(|w| w.choices == vec![Some(0), Some(0), Some(1), Some(0), Some(1)])
        .expect("Fig. 8's I1 exists");
    let i2 = full
        .iter()
        .find(|w| w.choices == vec![Some(1), Some(1), Some(0), Some(0), Some(0)])
        .expect("Fig. 8's I2 exists");
    println!(
        "  I1 (John pilot | Tim mechanic | Johan pianist | Tom mechanic | Sean pilot): P = {:.4}",
        i1.probability
    );
    println!(
        "  I2 (Johan mu* | Jim mechanic | John pilot | Tom mechanic | John ⊥):        P = {:.4}",
        i2.probability
    );
}

/// Fig. 9: the sorted orders of the two worlds of Fig. 8.
fn fig9() {
    println!("[F9] Fig. 9 — per-world sorted key orders (multi-pass SNM)");
    let r34 = paper::r34();
    let mp = multipass_snm(
        r34.xtuples(),
        &paper::sorting_key(),
        2,
        WorldSelection::All { limit: 100 },
    );
    // Find the two worlds of Fig. 8 among the passes and print their orders.
    for (want, label) in [
        (vec![Some(0), Some(0), Some(1), Some(0), Some(1)], "I1"),
        (vec![Some(1), Some(1), Some(0), Some(0), Some(0)], "I2"),
    ] {
        let (_, order) = mp
            .passes
            .iter()
            .find(|(w, _)| w.choices == want)
            .expect("world present");
        let keys: Vec<String> = order
            .iter()
            .map(|e| format!("{}:{}", e.key, LABELS[e.tuple]))
            .collect();
        println!("  {label}: {}", keys.join("  "));
    }
    let i1_order: Vec<&str> = mp
        .passes
        .iter()
        .find(|(w, _)| w.choices == vec![Some(0), Some(0), Some(1), Some(0), Some(1)])
        .map(|(_, o)| o.iter().map(|e| e.key.as_str()).collect())
        .unwrap();
    assert_eq!(i1_order, vec!["Johpi", "Johpi", "Seapi", "Timme", "Tomme"]);
    println!("  (paper prints Seapil for t43 in I1 — a typo for the 3+2 key Seapi)");
}

/// Fig. 10: conflict-resolved keys and the subset containment.
fn fig10() {
    println!("[F10] Fig. 10 — most-probable-alternative keys");
    let r34 = paper::r34();
    let (pairs, order) = conflict_resolved_snm(
        r34.xtuples(),
        &paper::sorting_key(),
        2,
        ConflictResolution::MostProbableAlternative,
    );
    let keys: Vec<String> = order
        .iter()
        .map(|e| format!("{}:{}", e.key, LABELS[e.tuple]))
        .collect();
    println!("  sorted: {}", keys.join("  "));
    assert_eq!(
        order.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
        vec!["Jimba", "Johpi", "Johpi", "Seapi", "Tomme"]
    );
    let multi = multipass_snm(
        r34.xtuples(),
        &paper::sorting_key(),
        2,
        WorldSelection::All { limit: 100 },
    );
    let subset = pairs
        .pairs()
        .iter()
        .all(|&(i, j)| multi.pairs.contains(i, j));
    println!("  matchings ⊆ multi-pass matchings: {subset} ✓ (paper's claim)");
    assert!(subset);
}

/// Fig. 11: sorting alternatives — five matchings.
fn fig11() {
    println!("[F11] Fig. 11 — sorting alternatives");
    let r34 = paper::r34();
    let r = sorting_alternatives(r34.xtuples(), &paper::sorting_key(), 2);
    let keys: Vec<String> = r
        .order
        .iter()
        .map(|e| format!("{}:{}", e.key, LABELS[e.tuple]))
        .collect();
    println!("  collapsed sorted entries: {}", keys.join("  "));
    let matchings: Vec<String> = r
        .pairs
        .pairs()
        .iter()
        .map(|&(i, j)| format!("({}, {})", LABELS[i], LABELS[j]))
        .collect();
    println!("  matchings: {}", matchings.join(", "));
    check("number of matchings", r.pairs.len() as f64, 5.0, 0.0);
}

/// Fig. 12: the executed-matching matrix suppresses the repeat.
fn fig12() {
    println!("[F12] Fig. 12 — executed-matching matrix");
    let r34 = paper::r34();
    let r = sorting_alternatives(r34.xtuples(), &paper::sorting_key(), 2);
    // Window over the collapsed entries generates (t32, t43) twice:
    // entries Jimba:t32|Joh:t43 and Seapi:t43|Timme:t32. Executed once.
    let count = r
        .pairs
        .pairs()
        .iter()
        .filter(|&&p| p == (rows::T32, rows::T43))
        .count();
    check("(t32, t43) executed exactly once", count as f64, 1.0, 0.0);
}

/// Fig. 13: probabilistic key values and the ranked order.
fn fig13() {
    println!("[F13] Fig. 13 — uncertain keys and ranking");
    let r34 = paper::r34();
    let spec = paper::sorting_key();
    let expected: [(&str, Vec<(&str, f64)>); 5] = [
        ("t31", vec![("Johpi", 0.7), ("Johmu", 0.3)]),
        ("t32", vec![("Timme", 0.3), ("Jimme", 0.2), ("Jimba", 0.4)]),
        ("t41", vec![("Johpi", 1.0)]),
        ("t42", vec![("Tomme", 0.8)]),
        ("t43", vec![("Joh", 0.2), ("Seapi", 0.6)]),
    ];
    for (i, (label, keys)) in expected.iter().enumerate() {
        let got = spec.xtuple_keys(&r34.xtuples()[i]);
        for (k, p) in keys {
            let gp = got
                .iter()
                .find(|(gk, _)| gk == k)
                .map(|(_, gp)| *gp)
                .unwrap_or(f64::NAN);
            check(&format!("{label} key {k}"), gp, *p, 1e-12);
        }
    }
    let (_, order) = ranked_snm(r34.xtuples(), &spec, 2, RankingFunction::MostProbableKey);
    let ranked: Vec<&str> = order.iter().map(|&i| LABELS[i]).collect();
    println!(
        "  ranked order: {} (paper: t32 t31 t41 t43 t42)",
        ranked.join(" ")
    );
    assert_eq!(
        order,
        vec![rows::T32, rows::T31, rows::T41, rows::T43, rows::T42]
    );
}

/// Fig. 14: blocking with alternative keys.
fn fig14() {
    println!("[F14] Fig. 14 — blocking with alternative keys");
    let r34 = paper::r34();
    let r = block_alternatives(r34.xtuples(), &paper::blocking_key());
    for (key, members) in &r.blocks {
        let names: Vec<&str> = members.iter().map(|&i| LABELS[i]).collect();
        println!("  block {key:>2}: {}", names.join(", "));
    }
    check("number of blocks", r.blocks.len() as f64, 6.0, 0.0);
    check("number of matchings", r.pairs.len() as f64, 3.0, 0.0);
    println!("  (the figure's printed tuple labels use an inconsistent naming;");
    println!("   on ℛ3 ∪ ℛ4 as drawn the matchings are (t31,t32), (t31,t41), (t32,t42))");
}

// ---------------------------------------------------------------------
// Quantitative experiments E1–E6.
// ---------------------------------------------------------------------

fn to_set(pairs: &CandidatePairs) -> HashSet<(usize, usize)> {
    pairs.pairs().iter().copied().collect()
}

/// E1: pairs completeness / reduction ratio / runtime of every reduction
/// method, over growing dataset sizes.
fn exp_reduction() {
    println!("[E1] reduction effectiveness & efficiency (key: name[0..3]+city[0..2], window 6)");
    for entities in [250usize, 500, 1000, 2000] {
        let ds = workload(entities);
        let combined = ds.combined();
        let tuples = combined.xtuples();
        let truth = ds.truth.true_pairs();
        let n = tuples.len();
        let spec = experiment_key();
        println!(
            "\n  n = {n} rows, {} true duplicate pairs, {} total pairs",
            truth.len(),
            n * (n - 1) / 2
        );
        let mut table = Table::new(&["method", "candidates", "PC", "RR", "ms"]);
        let mut run = |name: &str, f: &mut dyn FnMut() -> CandidatePairs| {
            let start = Instant::now();
            let pairs = f();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let m = ReductionMetrics::evaluate(&to_set(&pairs), &truth, n);
            table.row(&[
                name.to_string(),
                pairs.len().to_string(),
                format!("{:.3}", m.pairs_completeness),
                format!("{:.4}", m.reduction_ratio),
                format!("{ms:.1}"),
            ]);
        };
        run("full comparison", &mut || {
            let mut p = CandidatePairs::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    p.insert(i, j);
                }
            }
            p
        });
        run("snm multipass top-3", &mut || {
            multipass_snm(tuples, &spec, 6, WorldSelection::TopK(3)).pairs
        });
        run("snm multipass diverse-3/16", &mut || {
            multipass_snm(
                tuples,
                &spec,
                6,
                WorldSelection::DiverseTopK { k: 3, pool: 16 },
            )
            .pairs
        });
        run("snm conflict-resolved", &mut || {
            conflict_resolved_snm(
                tuples,
                &spec,
                6,
                ConflictResolution::MostProbableAlternative,
            )
            .0
        });
        run("snm sorting-alternatives", &mut || {
            sorting_alternatives(tuples, &spec, 6).pairs
        });
        run("snm ranked (expected score)", &mut || {
            ranked_snm(tuples, &spec, 6, RankingFunction::ExpectedScore).0
        });
        run("snm ranked (most-probable key)", &mut || {
            ranked_snm(tuples, &spec, 6, RankingFunction::MostProbableKey).0
        });
        run("blocking alternatives", &mut || {
            block_alternatives(tuples, &spec).pairs
        });
        run("blocking conflict-resolved", &mut || {
            block_conflict_resolved(tuples, &spec, ConflictResolution::MostProbableAlternative)
                .pairs
        });
        run("blocking cluster (k = n/8)", &mut || {
            cluster_blocking(
                tuples,
                &spec,
                &ClusterBlockingConfig {
                    k: (n / 8).max(2),
                    ..Default::default()
                },
            )
            .0
        });
        println!("{table}");
    }
    println!();
}

/// E2: decision quality of the three derivations over threshold sweeps.
fn exp_derivation() {
    println!("[E2] derivation quality (similarity-based vs decision-based vs E(η))");
    let ds = workload(500);
    let combined = ds.combined();
    let tuples = combined.xtuples();
    let truth = ds.truth.true_pairs();
    let n = tuples.len();
    let cmp = AttributeComparators::uniform(&ds.schema, JaroWinkler::new());
    let (candidates, _) = ranked_snm(
        tuples,
        &experiment_key(),
        10,
        RankingFunction::ExpectedScore,
    );
    let missed = truth
        .iter()
        .filter(|&&(i, j)| !candidates.contains(i, j))
        .count() as u64;
    let universe = (n * (n - 1) / 2) as u64;
    println!(
        "  {} candidates, {} true pairs missed by reduction",
        candidates.len(),
        missed
    );

    let phi: Arc<dyn CombinationFunction> = Arc::new(experiment_weights());
    let inner = Thresholds::new(0.72, 0.82).unwrap();
    let derivations: Vec<(&str, Arc<dyn XTupleDecisionModel>, f64, f64)> = vec![
        (
            "similarity-based E[sim] (Eq. 6)",
            Arc::new(SimilarityBasedModel::new(
                phi.clone(),
                Arc::new(ExpectedSimilarity),
                inner,
            )),
            0.5,
            1.0,
        ),
        (
            "decision-based P(m)/P(u) (Eqs. 7-9)",
            Arc::new(DecisionBasedModel::new(
                phi.clone(),
                inner,
                Arc::new(MatchingWeightDerivation::with_cap(100.0)),
                Thresholds::new(0.5, 2.0).unwrap(),
            )),
            0.0,
            100.0,
        ),
        (
            "decision-based E(η) (m=2,p=1,u=0)",
            Arc::new(DecisionBasedModel::new(
                phi,
                inner,
                Arc::new(ExpectedMatchingResult::new()),
                Thresholds::new(0.9, 1.7).unwrap(),
            )),
            0.0,
            2.0,
        ),
    ];
    let mut table = Table::new(&["derivation", "best F1", "at threshold", "P", "R"]);
    for (name, model, lo, hi) in derivations {
        let scored: Vec<(f64, bool)> = candidates
            .pairs()
            .iter()
            .map(|&(i, j)| {
                let matrix = compare_xtuples(&tuples[i], &tuples[j], &cmp);
                let d = model.decide(&tuples[i], &tuples[j], &matrix);
                (d.similarity, truth.contains(&(i, j)))
            })
            .collect();
        let points = sweep_thresholds(&scored, missed, universe, &grid(lo, hi, 60));
        let best = best_f1(&points).expect("non-empty sweep");
        table.row(&[
            name.to_string(),
            format!("{:.3}", best.metrics.f1),
            format!("{:.3}", best.threshold),
            format!("{:.3}", best.metrics.precision),
            format!("{:.3}", best.metrics.recall),
        ]);
    }
    println!("{table}\n");
}

/// E3: world-selection policies for the multi-pass SNM, on two uncertainty
/// profiles. At a moderate x-tuple rate the top worlds are near-identical
/// and neither policy gains much over one pass; when most records are
/// multi-alternative x-tuples, worlds genuinely differ and the diverse
/// policy buys more completeness per pass — the paper's argument.
fn exp_worlds() {
    println!("[E3] world selection for multi-pass SNM (budget = k passes)");
    use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
    let heavy = |entities: usize| {
        generate(
            &Dictionaries::people(),
            &DatasetConfig {
                entities,
                sources: 2,
                presence_rate: 0.85,
                extra_copy_rate: 0.1,
                typo_rate: 0.25,
                uncertainty_rate: 0.5,
                xtuple_rate: 0.9,
                maybe_rate: 0.3,
                seed: probdedup_bench::SEED,
                ..DatasetConfig::default()
            },
        )
    };
    let profiles: [(&str, probdedup::datagen::SyntheticDataset); 3] = [
        ("moderate uncertainty (xtuple_rate 0.25)", workload(400)),
        ("heavy uncertainty (xtuple_rate 0.9)", heavy(400)),
        (
            "small relation, heavy uncertainty (the paper's regime)",
            heavy(25),
        ),
    ];
    for (profile, ds) in profiles {
        let combined = ds.combined();
        let tuples = combined.xtuples();
        let truth = ds.truth.true_pairs();
        let n = tuples.len();
        let spec = experiment_key();
        println!("\n  profile: {profile}, n = {n}");
        let mut table = Table::new(&[
            "k",
            "top-k PC",
            "diverse PC",
            "top-k cands",
            "diverse cands",
        ]);
        for k in [1usize, 2, 3, 5, 8] {
            let top = multipass_snm(tuples, &spec, 6, WorldSelection::TopK(k));
            let div = multipass_snm(
                tuples,
                &spec,
                6,
                WorldSelection::DiverseTopK { k, pool: 64 },
            );
            let pc_top =
                ReductionMetrics::evaluate(&to_set(&top.pairs), &truth, n).pairs_completeness;
            let pc_div =
                ReductionMetrics::evaluate(&to_set(&div.pairs), &truth, n).pairs_completeness;
            table.row(&[
                k.to_string(),
                format!("{pc_top:.3}"),
                format!("{pc_div:.3}"),
                top.pairs.len().to_string(),
                div.pairs.len().to_string(),
            ]);
        }
        println!("{table}");
    }
    println!();
}

/// E5: EM parameter recovery against the generating model.
fn exp_em() {
    println!("[E5] EM estimation of Fellegi-Sunter parameters (unsupervised)");
    let ds = workload(800);
    let combined = ds.combined();
    let tuples = combined.xtuples();
    let truth = ds.truth.true_pairs();
    let cmp = AttributeComparators::uniform(&ds.schema, JaroWinkler::new());
    let (candidates, _) = ranked_snm(
        tuples,
        &experiment_key(),
        10,
        RankingFunction::ExpectedScore,
    );
    let marginals: Vec<_> = tuples.iter().map(marginalize_xtuple).collect();
    let vectors: Vec<Vec<f64>> = candidates
        .pairs()
        .iter()
        .map(|&(i, j)| compare_tuples(&marginals[i], &marginals[j], &cmp))
        .collect();
    let labels: Vec<bool> = candidates
        .pairs()
        .iter()
        .map(|p| truth.contains(p))
        .collect();
    let patterns = binarize(&vectors, 0.8);
    let em = fit_em(&patterns, &EmConfig::default()).expect("EM");
    // Supervised reference rates from the (held-back) labels.
    let mut table = Table::new(&["attribute", "EM m", "true m", "EM u", "true u"]);
    let names = ["name", "job", "city", "age"];
    for a in 0..4 {
        let m_true = {
            let (mut agree, mut tot): (f64, f64) = (0.0, 0.0);
            for (p, &l) in patterns.iter().zip(&labels) {
                if l {
                    tot += 1.0;
                    if p[a] {
                        agree += 1.0;
                    }
                }
            }
            agree / tot.max(1.0)
        };
        let u_true = {
            let (mut agree, mut tot): (f64, f64) = (0.0, 0.0);
            for (p, &l) in patterns.iter().zip(&labels) {
                if !l {
                    tot += 1.0;
                    if p[a] {
                        agree += 1.0;
                    }
                }
            }
            agree / tot.max(1.0)
        };
        table.row(&[
            names[a].to_string(),
            format!("{:.3}", em.model.m()[a]),
            format!("{m_true:.3}"),
            format!("{:.3}", em.model.u()[a]),
            format!("{u_true:.3}"),
        ]);
    }
    println!(
        "  {} candidate patterns, match proportion: EM {:.4} vs true {:.4}",
        patterns.len(),
        em.match_proportion,
        labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64
    );
    println!("{table}");
    let fs_em = em.model;
    let metrics = {
        let th = fs_em.optimal_thresholds(0.005, 0.05).expect("thresholds");
        let mut predicted = HashSet::new();
        for (v, &(i, j)) in vectors.iter().zip(candidates.pairs()) {
            use probdedup::decision::threshold::MatchClass;
            if th.classify(fs_em.weight(v)) == MatchClass::Match {
                predicted.insert((i, j));
            }
        }
        EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(
            &predicted,
            &truth,
            tuples.len(),
        ))
    };
    println!("  end-to-end FS-with-EM auto-match quality: {metrics}\n");
}

/// E6/ablation: how the key design drives the completeness/reduction
/// trade-off of the sorting-alternatives method — the ablation for the
/// paper's "a key could contain the first three characters of the
/// name value and the first two characters of the job value".
fn exp_keys() {
    use probdedup::reduction::{KeyPart, KeySpec};
    println!("[E6] key-design ablation (sorting-alternatives, window 6, n = 500 entities)");
    let ds = workload(500);
    let combined = ds.combined();
    let tuples = combined.xtuples();
    let truth = ds.truth.true_pairs();
    let n = tuples.len();
    let keys: Vec<(&str, KeySpec)> = vec![
        ("name[0..1]", KeySpec::new(vec![KeyPart::prefix(0, 1)])),
        ("name[0..3]", KeySpec::new(vec![KeyPart::prefix(0, 3)])),
        ("name (full)", KeySpec::new(vec![KeyPart::full(0)])),
        (
            "name[0..3]+job[0..2] (paper's key)",
            KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(1, 2)]),
        ),
        (
            "name[0..3]+city[0..2]",
            KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)]),
        ),
        (
            "city[0..2]+name[0..3] (swapped order)",
            KeySpec::new(vec![KeyPart::prefix(2, 2), KeyPart::prefix(0, 3)]),
        ),
        (
            "name[0..5]+job[0..3]+city[0..2]",
            KeySpec::new(vec![
                KeyPart::prefix(0, 5),
                KeyPart::prefix(1, 3),
                KeyPart::prefix(2, 2),
            ]),
        ),
    ];
    let mut table = Table::new(&["key", "candidates", "PC", "RR"]);
    for (name, spec) in keys {
        let r = sorting_alternatives(tuples, &spec, 6);
        let m = ReductionMetrics::evaluate(&to_set(&r.pairs), &truth, n);
        table.row(&[
            name.to_string(),
            r.pairs.len().to_string(),
            format!("{:.3}", m.pairs_completeness),
            format!("{:.4}", m.reduction_ratio),
        ]);
    }
    println!("{table}");
    println!("  (too-coarse keys create giant tie groups a fixed window cannot cover,");
    println!("   collapsing PC; composite keys both discriminate and co-locate true");
    println!("   duplicates; the leading part dominates the sort order, so putting the");
    println!("   least error-prone attribute first pays off.)\n");
}

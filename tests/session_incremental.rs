//! The session's **split-invariance** contract, end to end: ingesting a
//! generated corpus through a [`DedupSession`] in *any* batch split yields
//! the same match / possible / non-match partition (and the same duplicate
//! clusters) as one batch [`DedupPipeline::run`] over the concatenated
//! sources — under the exact decision model and the classify-only
//! (bounded) mode, across thread counts (the equality contract is stated
//! in ARCHITECTURE.md, "The engine"). Plus the warm-rerun certificate: re-running an unchanged corpus
//! performs **zero** key renders and interns zero new values. And the
//! memo invariant: after every `run`, `ingest` and `open`, under all seven
//! reduction strategies, the session's view is the one-shot run over the
//! sources so far — pairs, order, classes, clusters — and each ingest
//! classified exactly the pairs that run gained. And the one-shot run
//! itself, which keeps no session: it equals a fresh session's `run` byte
//! for byte.
//!
//! [`DedupSession`]: probdedup::core::session::DedupSession
//! [`DedupPipeline::run`]: probdedup::core::pipeline::DedupPipeline::run

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use probdedup::core::pipeline::{DedupPipeline, DedupResult, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::session::DedupSession;
use probdedup::core::test_support::{
    all_strategies, assert_classes_agree_with_reference, assert_exact_agrees_with_reference,
};
use probdedup::datagen::{generate, DatasetConfig, Dictionaries, SyntheticDataset};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::relation::XRelation;
use probdedup::model::xtuple::XTuple;
use probdedup::reduction::{ConflictResolution, KeyPart, KeySpec, WorldSelection};
use probdedup::textsim::JaroWinkler;

/// Two small dirty sources of `entities` entities.
fn dataset(entities: usize, seed: u64) -> SyntheticDataset {
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
}

/// The workload corpus: two small dirty sources, concatenated (we re-split
/// them ourselves).
fn corpus() -> Vec<XTuple> {
    dataset(14, 0xC0FFEE).combined().xtuples().to_vec()
}

fn key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(&corpus_schema(), JaroWinkler::new())
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

/// Build the configured front door (exact model or bounded classify-only).
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

fn corpus_schema() -> probdedup::model::schema::Schema {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 1,
            ..DatasetConfig::default()
        },
    )
    .schema
}

/// Split `tuples` into 1..=4 batches at the given relative cut points.
fn split_sources(tuples: &[XTuple], cuts: &[usize]) -> Vec<XRelation> {
    let schema = corpus_schema();
    let n = tuples.len();
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| {
            let mut r = XRelation::new(schema.clone());
            for t in &tuples[w[0]..w[1]] {
                r.push(t.clone());
            }
            r
        })
        .filter(|r| !r.is_empty())
        .collect()
}

fn class_map(result: &DedupResult) -> HashMap<(usize, usize), MatchClass> {
    result.decisions.iter().map(|d| (d.pair, d.class)).collect()
}

/// Assert the session's merged view equals the one-shot run.
fn assert_equivalent(one_shot: &DedupResult, merged: &DedupResult, label: &str) {
    assert_eq!(
        one_shot.decisions.len(),
        merged.decisions.len(),
        "{label}: candidate counts differ"
    );
    let by_pair = class_map(merged);
    for d in &one_shot.decisions {
        assert_eq!(
            by_pair.get(&d.pair),
            Some(&d.class),
            "{label}: pair {:?} classified differently",
            d.pair
        );
    }
    assert_eq!(one_shot.clusters, merged.clusters, "{label}: clusters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any random split of the corpus into 1..=4 ingest batches reproduces
    /// the one-shot batch partition — exact and bounded modes, 1 and 4
    /// threads, across reduction strategies (including a world-dependent
    /// one).
    #[test]
    fn ingest_split_invariance(
        cuts in proptest::collection::vec(0usize..10_000, 0..3),
        strat_idx in 0usize..7,
        four_threads in any::<bool>(),
        bounded in any::<bool>(),
    ) {
        let threads = if four_threads { 4 } else { 1 };
        let tuples = corpus();
        let sources = split_sources(&tuples, &cuts);
        let refs: Vec<&XRelation> = sources.iter().collect();
        let strategy = all_strategies(&key()).swap_remove(strat_idx);
        let label = format!(
            "{} bounded={bounded} threads={threads} batches={}",
            strategy.name(),
            sources.len()
        );

        let one_shot = pipeline(strategy.clone(), bounded, threads)
            .run(&refs)
            .unwrap();
        let mut session: DedupSession =
            pipeline(strategy, bounded, threads).session();
        for src in &sources {
            session.ingest(src).unwrap();
        }
        assert_equivalent(&one_shot, &session.result(), &label);
    }
}

/// `(pair, class)` per decision, in result order.
fn classes(result: &DedupResult) -> Vec<((usize, usize), MatchClass)> {
    result.decisions.iter().map(|d| (d.pair, d.class)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The decision memo is the candidate set, and every write leaves it
    /// exactly right: under every reduction strategy and any batch split,
    /// after every step — a leading `run` or an `ingest` — `result()` is
    /// the one-shot run over the sources so far in pairs, *order*,
    /// classes and clusters (bit for bit in both configurations), and the
    /// step's `new_decisions` are that one-shot list filtered to the
    /// pairs with a new row (for the strategies that regenerate: to the
    /// pairs not decided before the step). A final snapshot round trip
    /// reopens to the same view.
    #[test]
    fn memo_is_exactly_the_candidate_set(
        cuts in proptest::collection::vec(0usize..10_000, 0..5),
        run_first in any::<bool>(),
        bounded in any::<bool>(),
    ) {
        let tuples = corpus();
        let sources = split_sources(&tuples, &cuts);
        let refs: Vec<&XRelation> = sources.iter().collect();
        for strategy in all_strategies(&key()) {
            let regenerates = matches!(
                strategy,
                ReductionStrategy::MultipassWorlds { .. }
                    | ReductionStrategy::BlockingMultipass { .. }
            );
            let label = format!(
                "{} bounded={bounded} run_first={run_first} batches={}",
                strategy.name(),
                sources.len()
            );
            let pipe = pipeline(strategy, bounded, 2);
            let mut session = pipe.session();
            let mut one_shot = pipe.run(&[]).unwrap();
            for (step, src) in sources.iter().enumerate() {
                let label = format!("{label}: after step {step}");
                let start = session.rows();
                let decided_before = class_map(&one_shot);
                one_shot = pipe.run(&refs[..=step]).unwrap();
                if step == 0 && run_first {
                    session.run(&[src]).unwrap();
                } else {
                    let added = session.ingest(src).unwrap();
                    let expected: Vec<_> = classes(&one_shot)
                        .into_iter()
                        .filter(|(pair, _)| match regenerates {
                            true => !decided_before.contains_key(pair),
                            false => pair.1 >= start,
                        })
                        .collect();
                    let got: Vec<_> =
                        added.new_decisions.iter().map(|d| (d.pair, d.class)).collect();
                    prop_assert_eq!(got, expected, "{}: new_decisions", label);
                    prop_assert_eq!(added.candidates, one_shot.candidates, "{}", label);
                }
                prop_assert_eq!(session.candidate_count(), one_shot.candidates, "{}", label);
                let merged = session.result();
                prop_assert_eq!(classes(&merged), classes(&one_shot), "{}: order", label);
                prop_assert_eq!(&merged.clusters, &one_shot.clusters, "{}", label);
                // The memo's view and the ordered view describe one
                // partition: counts, clusters and the summary line.
                let partition = session.partition();
                prop_assert_eq!(&partition, &merged.partition(), "{}: partition", label);
                prop_assert_eq!(partition.summary(), merged.summary(), "{}", label);
                prop_assert_eq!(&merged.decisions, &one_shot.decisions, "{}", label);
            }

            let reopened =
                DedupSession::from_snapshot_bytes(&session.to_snapshot_bytes(), &pipe).unwrap();
            prop_assert_eq!(reopened.candidate_count(), one_shot.candidates, "{}: open", label);
            let restored = reopened.result();
            prop_assert_eq!(classes(&restored), classes(&one_shot), "{}: open", label);
            prop_assert_eq!(&restored.clusters, &one_shot.clusters, "{}: open", label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one-shot run keeps no session, yet on random corpora, under all
    /// seven reduction strategies and both engine configurations, it equals
    /// a fresh session's `run` byte for byte: candidates in order,
    /// decisions, clusters, source offsets, the combined relation and the
    /// stats. The sources stay separate, so the combination is covered too.
    #[test]
    fn one_shot_run_equals_a_fresh_session_run(
        seed in 0u64..1_000_000,
        entities in 4usize..20,
    ) {
        let sources = dataset(entities, seed).relations;
        let refs: Vec<&XRelation> = sources.iter().collect();
        for strategy in all_strategies(&key()) {
            for bounded in [false, true] {
                let label = format!(
                    "{} seed={seed} entities={entities} bounded={bounded}",
                    strategy.name()
                );
                let pipe = pipeline(strategy.clone(), bounded, 2);
                let one_shot = pipe.run(&refs).unwrap();
                let session = pipe.session().run(&refs).unwrap();
                prop_assert_eq!(one_shot.candidates, session.candidates, "{}", label);
                prop_assert_eq!(&one_shot.decisions, &session.decisions, "{}", label);
                prop_assert_eq!(&one_shot.clusters, &session.clusters, "{}", label);
                prop_assert_eq!(&one_shot.source_offsets, &session.source_offsets, "{}", label);
                prop_assert_eq!(&one_shot.relation, &session.relation, "{}", label);
                prop_assert_eq!(one_shot.stats, session.stats, "{}", label);
            }
        }
    }
}

/// Inputs chosen against the delta emission: every key equal, a window of
/// 2 and one wider than the corpus, empty and single-row batches, and an
/// x-tuple whose two adjacent (collapsed) SNM entries a later row sorts
/// between. After every ingest the session equals the one-shot run.
#[test]
fn adversarial_batches_keep_the_session_equal_to_one_shot() {
    let schema = corpus_schema();
    let row = |alts: &[&str]| {
        let mut b = XTuple::builder(&schema);
        for (i, name) in alts.iter().enumerate() {
            b = b.alt(
                0.9 / alts.len() as f64 - 0.01 * i as f64,
                [*name, "clerk", "ulm", "40"],
            );
        }
        b.build().unwrap()
    };
    let batch = |rows: &[&[&str]]| {
        let mut r = XRelation::new(schema.clone());
        for alts in rows {
            r.push(row(alts));
        }
        r
    };
    let cases: Vec<(&str, Vec<XRelation>)> = vec![
        (
            "all-equal keys",
            vec![
                batch(&[&["anna"], &["anna"], &["anna"]]),
                batch(&[]),
                batch(&[&["anna"]]),
                batch(&[&["anna"], &["anna"], &["anna"], &["anna"]]),
            ],
        ),
        (
            "before / between / after",
            vec![
                batch(&[&["mia"], &["noa"], &["ole"]]),
                batch(&[&["ada"], &["abe"]]),
                batch(&[&["mio"], &["nia"]]),
                batch(&[&["zoe"]]),
            ],
        ),
        (
            "un-collapse",
            vec![
                batch(&[&["caa", "ccc"], &["aaa"], &["ddd"]]),
                batch(&[&["cbb"]]),
                batch(&[&["cbb", "aaa", "ddd"]]),
                batch(&[&["cab"]]),
            ],
        ),
    ];
    for (name, sources) in &cases {
        let refs: Vec<&XRelation> = sources.iter().collect();
        for window in [2, 3, 64] {
            let strategies = [
                ReductionStrategy::SortingAlternatives {
                    spec: key(),
                    window,
                },
                ReductionStrategy::ConflictResolved {
                    spec: key(),
                    window,
                    strategy: ConflictResolution::MostProbableAlternative,
                },
                ReductionStrategy::BlockingAlternatives { spec: key() },
                ReductionStrategy::Full,
            ];
            for strategy in strategies {
                let label = format!("{name}: {} window {window}", strategy.name());
                let pipe = pipeline(strategy, false, 1);
                let mut session = pipe.session();
                for step in 0..sources.len() {
                    let start = session.rows();
                    let added = session.ingest(&sources[step]).unwrap();
                    let one_shot = pipe.run(&refs[..=step]).unwrap();
                    assert_eq!(session.result().decisions, one_shot.decisions, "{label}");
                    assert_eq!(session.result().clusters, one_shot.clusters, "{label}");
                    let with_new_row: Vec<_> = one_shot
                        .decisions
                        .iter()
                        .copied()
                        .filter(|d| d.pair.1 >= start)
                        .collect();
                    assert_eq!(added.new_decisions, with_new_row, "{label}: step {step}");
                }
            }
        }
    }
}

/// What the streamed partition is invariant *to* is pinned against the
/// paper-literal reference: a session fed in two batches agrees with
/// `compare_xtuples` + `decide` straight off the x-tuples, for all seven
/// strategies and both engine configurations.
#[test]
fn streamed_result_agrees_with_paper_literal_reference() {
    let tuples = corpus();
    let sources = split_sources(&tuples, &[tuples.len() / 2]);
    for strategy in all_strategies(&key()) {
        for bounded in [false, true] {
            let label = format!("{} bounded={bounded}", strategy.name());
            let mut session = pipeline(strategy.clone(), bounded, 2).session();
            for src in &sources {
                session.ingest(src).unwrap();
            }
            let merged = session.result();
            if bounded {
                assert_classes_agree_with_reference(
                    &merged,
                    &comparators(),
                    model().as_ref(),
                    &label,
                );
            } else {
                assert_exact_agrees_with_reference(
                    &merged,
                    &comparators(),
                    model().as_ref(),
                    &label,
                );
            }
        }
    }
}

/// The warm-rerun certificate: running the same sources again performs
/// zero key renders, interns zero new values, and returns the identical
/// result — asserted through the session's pool counters
/// ([`KeyPool::render_count`] under the hood).
///
/// [`KeyPool::render_count`]: probdedup::model::intern::KeyPool::render_count
#[test]
fn warm_rerun_performs_zero_key_renders() {
    let tuples = corpus();
    let sources = split_sources(&tuples, &[tuples.len() / 2]);
    let refs: Vec<&XRelation> = sources.iter().collect();
    for (bounded, strategy) in [
        (
            false,
            ReductionStrategy::SortingAlternatives {
                spec: key(),
                window: 4,
            },
        ),
        (
            true,
            ReductionStrategy::BlockingAlternatives { spec: key() },
        ),
        (
            false,
            ReductionStrategy::MultipassWorlds {
                spec: key(),
                window: 3,
                selection: WorldSelection::TopK(3),
            },
        ),
    ] {
        let mut session = pipeline(strategy, bounded, 2).session();
        let first = session.run(&refs).unwrap();
        let renders = session.key_render_count();
        let interned = session.interned_value_count();
        assert!(renders > 0, "key table never built");
        assert!(interned > 0, "nothing interned");
        let again = session.run(&refs).unwrap();
        assert_eq!(
            session.key_render_count(),
            renders,
            "warm rerun rendered keys"
        );
        assert_eq!(
            session.interned_value_count(),
            interned,
            "warm rerun interned new values"
        );
        assert_eq!(first.decisions, again.decisions);
        assert_eq!(first.clusters, again.clusters);
    }
}

/// Ingest after `run`: the session extends the corpus it ran, and the
/// merged view equals a one-shot run over all three batches.
#[test]
fn run_then_ingest_composes() {
    let tuples = corpus();
    let sources = split_sources(&tuples, &[tuples.len() / 3, 2 * tuples.len() / 3]);
    if sources.len() < 3 {
        return; // degenerate corpus; nothing to compose
    }
    let refs_all: Vec<&XRelation> = sources.iter().collect();
    let strategy = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 4,
    };
    let one_shot = pipeline(strategy.clone(), false, 2).run(&refs_all).unwrap();
    let mut session = pipeline(strategy, false, 2).session();
    session.run(&[&sources[0], &sources[1]]).unwrap();
    let step = session.ingest(&sources[2]).unwrap();
    assert!(step.rows_added() > 0);
    assert_equivalent(&one_shot, &session.result(), "run-then-ingest");
}

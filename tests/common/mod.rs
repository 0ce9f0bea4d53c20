//! The engine's **equality contract** (ARCHITECTURE.md, "The engine"),
//! tested from one harness: a session fed any batch split — after a
//! leading `run` or not, at any thread count, under all seven reduction
//! strategies, exact or bounded, reopened from its snapshot bytes or
//! recovered from a snapshot plus a journal tail — equals the one-shot
//! [`DedupPipeline::run`] over the sources so far at one thread, after
//! every step, and each ingest classifies exactly the pairs that run
//! gained. At the end of every case the result agrees with the
//! paper-literal reference, a warm rerun renders no key and interns no
//! value (live and after reopen), a fresh session's `run` equals the
//! one-shot run byte for byte (stats included) at every thread count, and
//! its snapshot bytes do not depend on the thread count.
//!
//! [`check`] is that one check; [`check_draw`] runs one [`Draw`] of the
//! generator through it. `tests/invariance.rs` draws every axis at once;
//! the suites that test one slice of the contract (`session_incremental`,
//! `determinism`, `snapshot`, `wal`) pin the other axes of a draw. All of
//! them share these fixtures: one generated dirty corpus, the reduction
//! key, φ, the thresholds and the pipeline built over them, and the batch
//! split.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use probdedup::core::pipeline::{DedupPipeline, DedupResult, PairDecision, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::session::DedupSession;
use probdedup::core::test_support::{
    all_strategies, assert_classes_agree_with_reference, assert_exact_agrees_with_reference,
};
use probdedup::core::wal::SessionJournal;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::relation::XRelation;
use probdedup::model::schema::Schema;
use probdedup::model::xtuple::XTuple;
use probdedup::reduction::{KeyPart, KeySpec};
use probdedup::textsim::JaroWinkler;

/// Two dirty sources of `entities` people, concatenated (the tests cut
/// them into batches themselves).
pub fn corpus(entities: usize, seed: u64) -> Vec<XTuple> {
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
    .combined()
    .xtuples()
    .to_vec()
}

/// The generated people schema: name, job, city, age.
pub fn schema() -> Schema {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 1,
            ..DatasetConfig::default()
        },
    )
    .schema
}

/// `name[..3] + city[..2]`.
pub fn key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

pub fn comparators() -> AttributeComparators {
    AttributeComparators::uniform(&schema(), JaroWinkler::new())
}

fn phi() -> WeightedSum {
    WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap()
}

fn thresholds() -> Thresholds {
    Thresholds::new(0.72, 0.82).unwrap()
}

/// The exact model — also the linear model classify-only stands for.
pub fn model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(phi()),
        Arc::new(ExpectedSimilarity),
        thresholds(),
    ))
}

/// The front door under `strategy`: the exact model, or the bounded
/// classify-only configuration.
pub fn pipeline(strategy: ReductionStrategy, bounded: bool, threads: usize) -> DedupPipeline {
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

/// Cut `tuples` into non-empty batches at the cut points (each taken
/// modulo `tuples.len() + 1`): `k` cuts give 1..=k+1 batches.
pub fn split_sources(tuples: &[XTuple], cuts: &[usize]) -> Vec<XRelation> {
    let schema = schema();
    let n = tuples.len();
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    bounds.extend([0, n]);
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
        .collect()
}

/// A fresh scratch directory, unique per call (a property test opens many
/// journals in one process).
pub fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "probdedup-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Where a case restarts its session.
#[derive(Debug, Clone, Copy)]
pub enum Restart {
    None,
    /// Reopen from the snapshot bytes after this many batches.
    Reopen(usize),
    /// Snapshot (and compact the journal) after `.0` batches, crash after
    /// `.1 >= .0`, then recover: open the snapshot and replay the journal
    /// tail.
    Tail(usize, usize),
}

/// How a session is fed: the pipeline it runs and the driver around it.
pub struct Case {
    pub strategy: ReductionStrategy,
    /// The classify-only configuration instead of the exact model.
    pub bounded: bool,
    pub threads: usize,
    /// The first batch arrives by `run`, not `ingest`.
    pub run_first: bool,
    pub restart: Restart,
}

/// Decisions down to the bits of their similarity.
fn bits(decisions: &[PairDecision]) -> Vec<((usize, usize), u64, MatchClass)> {
    decisions
        .iter()
        .map(|d| (d.pair, d.similarity.to_bits(), d.class))
        .collect()
}

/// Two results describe one resident view: candidates, decisions in
/// order with their bits, clusters, source offsets and the relation.
fn assert_same_view(got: &DedupResult, want: &DedupResult, label: &str) {
    assert_eq!(got.candidates, want.candidates, "{label}: candidates");
    assert_eq!(
        bits(&got.decisions),
        bits(&want.decisions),
        "{label}: decisions"
    );
    assert_eq!(got.clusters, want.clusters, "{label}: clusters");
    assert_eq!(got.source_offsets, want.source_offsets, "{label}: offsets");
    assert_eq!(got.relation, want.relation, "{label}: relation");
}

/// The session answers every read as the one-shot run does, and its
/// memo-backed partition is the ordered view's.
fn assert_equals_one_shot(session: &DedupSession, one_shot: &DedupResult, label: &str) {
    let merged = session.result();
    assert_same_view(&merged, one_shot, label);
    assert_eq!(session.candidate_count(), one_shot.candidates, "{label}");
    let partition = session.partition();
    assert_eq!(partition, merged.partition(), "{label}: partition");
    assert_eq!(partition.summary(), merged.summary(), "{label}: summary");
}

/// Feed `sources` to a session as `case` says and hold it to the
/// contract after every step and at the end (see the module docs).
pub fn check(case: &Case, sources: &[XRelation], label: &str) {
    let Case {
        ref strategy,
        bounded,
        threads,
        run_first,
        restart,
    } = *case;
    let label = format!(
        "{label} {} bounded={bounded} threads={threads} batches={} run_first={run_first} {restart:?}",
        strategy.name(),
        sources.len()
    );
    let regenerates = matches!(
        strategy,
        ReductionStrategy::MultipassWorlds { .. } | ReductionStrategy::BlockingMultipass { .. }
    );
    let keyed = !matches!(strategy, ReductionStrategy::Full);
    let oracle = pipeline(strategy.clone(), bounded, 1);
    let pipe = pipeline(strategy.clone(), bounded, threads);
    let refs: Vec<&XRelation> = sources.iter().collect();

    let dir = matches!(restart, Restart::Tail(..)).then(|| scratch("invariance"));
    let wal = dir.as_ref().map(|d| d.join("session.wal"));
    let mut session = pipe.session();
    let mut journal = wal.as_ref().map(|wal| {
        SessionJournal::open_and_replay(wal, &mut session)
            .unwrap()
            .0
    });
    let mut snapshot = Vec::new();
    let mut one_shot = oracle.run(&[]).unwrap();
    for step in 0..=sources.len() {
        let at = format!("{label}, after {step} batches");
        match restart {
            Restart::Reopen(j) if j == step => {
                session =
                    DedupSession::from_snapshot_bytes(&session.to_snapshot_bytes(), &pipe).unwrap();
                assert_equals_one_shot(&session, &one_shot, &format!("{at}, reopened"));
            }
            Restart::Tail(snap_at, crash_at) => {
                if step == snap_at {
                    snapshot = session.to_snapshot_bytes();
                    let journal = journal.as_mut().unwrap();
                    journal.compact(session.journal_seq()).unwrap();
                }
                if step == crash_at {
                    drop(journal.take()); // kill -9
                    session = DedupSession::from_snapshot_bytes(&snapshot, &pipe).unwrap();
                    let (recovered, replay) =
                        SessionJournal::open_and_replay(wal.as_ref().unwrap(), &mut session)
                            .unwrap();
                    journal = Some(recovered);
                    let at = format!("{at}, recovered");
                    assert_eq!(replay.replayed, (crash_at - snap_at) as u64, "{at}");
                    assert_eq!(session.journal_seq(), step as u64, "{at}");
                    assert_equals_one_shot(&session, &one_shot, &at);
                }
            }
            _ => {}
        }
        let Some(src) = sources.get(step) else { break };
        let at = format!("{label}, after {} batches", step + 1);
        let decided_before: HashSet<(usize, usize)> =
            one_shot.decisions.iter().map(|d| d.pair).collect();
        one_shot = oracle.run(&refs[..=step]).unwrap();
        if step == 0 && run_first {
            match journal.as_mut() {
                Some(journal) => journal.run(&mut session, src).unwrap(),
                None => session.run(&[src]).unwrap(),
            };
        } else {
            let start = session.rows();
            let added = match journal.as_mut() {
                Some(journal) => journal.ingest(&mut session, src).unwrap(),
                None => session.ingest(src).unwrap(),
            };
            // The pairs the step gained: those with a new row, or under
            // the regenerating strategies those not decided before.
            let gained: Vec<PairDecision> = one_shot
                .decisions
                .iter()
                .filter(|d| match regenerates {
                    true => !decided_before.contains(&d.pair),
                    false => d.pair.1 >= start,
                })
                .copied()
                .collect();
            assert_eq!(
                bits(&added.new_decisions),
                bits(&gained),
                "{at}: new decisions"
            );
            assert_eq!(added.candidates, one_shot.candidates, "{at}");
        }
        assert_equals_one_shot(&session, &one_shot, &at);
    }

    // What the bits should be: the paper-literal reference.
    let merged = session.result();
    let reference = model();
    match bounded {
        true => assert_classes_agree_with_reference(&merged, &comparators(), &*reference, &label),
        false => assert_exact_agrees_with_reference(&merged, &comparators(), &*reference, &label),
    }

    // The one-shot run equals a fresh session's run byte for byte, stats
    // included, and neither depends on the thread count; nor do the
    // snapshot bytes.
    let mut fresh = oracle.session();
    let mut runs = vec![("fresh run", fresh.run(&refs).unwrap())];
    if threads > 1 {
        let mut parallel = pipe.session();
        runs.push(("parallel fresh run", parallel.run(&refs).unwrap()));
        runs.push(("parallel one-shot run", pipe.run(&refs).unwrap()));
        assert!(
            parallel.to_snapshot_bytes() == fresh.to_snapshot_bytes(),
            "{label}: snapshot bytes differ from one thread's"
        );
    }
    for (how, ran) in runs {
        assert_same_view(&ran, &one_shot, &format!("{label}: {how}"));
        assert_eq!(ran.stats, one_shot.stats, "{label}: {how}");
    }

    // Opening re-keys the relation as a fresh run does; then an
    // identical-corpus rerun, live or reopened, renders no key and
    // interns no value.
    let reopened = DedupSession::from_snapshot_bytes(&session.to_snapshot_bytes(), &pipe).unwrap();
    assert_equals_one_shot(&reopened, &one_shot, &format!("{label}: reopened"));
    assert_eq!(
        reopened.key_render_count(),
        fresh.key_render_count(),
        "{label}: open rendered unlike a fresh run"
    );
    for (mut warm, how) in [(session, "live"), (reopened, "reopened")] {
        let label = format!("{label}: {how} warm rerun");
        let renders = warm.key_render_count();
        let interned = warm.interned_value_count();
        assert!(interned > 0 && (renders > 0 || !keyed), "{label}: cold");
        let again = warm.run(&refs).unwrap();
        assert_eq!(warm.key_render_count(), renders, "{label} rendered keys");
        assert_eq!(warm.interned_value_count(), interned, "{label} interned");
        assert_same_view(&again, &one_shot, &label);
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One draw of the generator: a corpus, its batch split, the
/// configuration, the thread count, the driver and the restart.
#[derive(Debug, Clone)]
pub struct Draw {
    /// The corpus: [`corpus`]`(entities, seed)`.
    pub entities: usize,
    pub seed: u64,
    /// The batch split, as [`split_sources`] takes it.
    pub cuts: Vec<usize>,
    /// The configuration of the even-numbered strategies; the odd ones
    /// take the other.
    pub bounded: bool,
    pub threads: usize,
    pub run_first: bool,
    /// `(kind, a, b)`, with `a` and `b` taken modulo the batch count + 1:
    /// kind 0 never restarts, 1 reopens after `a` batches, any other
    /// snapshots after `min(a, b)` batches and recovers after `max(a, b)`.
    pub restart: (usize, usize, usize),
}

impl Default for Draw {
    /// A fixed corpus of 14 entities in one batch, the exact model, one
    /// thread, every batch ingested, never restarted.
    fn default() -> Self {
        Self {
            entities: 14,
            seed: 0xC0FFEE,
            cuts: Vec::new(),
            bounded: false,
            threads: 1,
            run_first: false,
            restart: (0, 0, 0),
        }
    }
}

/// Hold `draw` to the contract ([`check`]) under each of `strategies`
/// (positions in [`all_strategies`]).
pub fn check_draw(draw: &Draw, strategies: impl IntoIterator<Item = usize>) {
    let sources = split_sources(&corpus(draw.entities, draw.seed), &draw.cuts);
    let span = sources.len() + 1;
    let (kind, a, b) = (draw.restart.0, draw.restart.1 % span, draw.restart.2 % span);
    let restart = match kind {
        0 => Restart::None,
        1 => Restart::Reopen(a),
        _ => Restart::Tail(a.min(b), a.max(b)),
    };
    let label = format!("entities={} seed={}", draw.entities, draw.seed);
    let all = all_strategies(&key());
    for i in strategies {
        let case = Case {
            strategy: all[i].clone(),
            bounded: draw.bounded != (i % 2 == 1),
            threads: draw.threads,
            run_first: draw.run_first,
            restart,
        };
        check(&case, &sources, &label);
    }
}

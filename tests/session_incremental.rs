//! The session's **split-invariance** contract, one slice at a time:
//! ingesting a corpus in any batch split, after a leading `run` or not,
//! equals one-shot [`DedupPipeline::run`]s over the sources so far, the
//! decision memo is exactly the candidate set after every step, the
//! result agrees with the paper-literal reference, and a warm rerun
//! renders no key. Each test pins the axes of a harness draw
//! (`tests/common/mod.rs`, which states what every draw checks).
//!
//! [`DedupPipeline::run`]: probdedup::core::pipeline::DedupPipeline::run

mod common;

use proptest::prelude::*;

use common::{check_draw, corpus, Draw};

/// The default draw's corpus cut at the given fractions of its length.
fn cut_at(fractions: &[(usize, usize)]) -> Vec<usize> {
    let Draw { entities, seed, .. } = Draw::default();
    let n = corpus(entities, seed).len();
    fractions.iter().map(|(p, q)| p * n / q).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any split of the corpus into 1..=3 ingest batches equals the
    /// one-shot run, in either configuration, at 1, 2 or 8 threads, under
    /// any one strategy.
    #[test]
    fn ingest_split_invariance(
        cuts in proptest::collection::vec(0usize..10_000, 0..3),
        strategy in 0usize..7,
        threads in 0usize..3,
        bounded in any::<bool>(),
    ) {
        let threads = [1, 2, 8][threads];
        check_draw(&Draw { cuts, bounded, threads, ..Draw::default() }, [strategy]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every step — a leading `run` or an `ingest` — under every
    /// strategy, the session's view is the one-shot run over the sources
    /// so far and the step's `new_decisions` are the pairs that run
    /// gained; the final snapshot reopens to the same view.
    #[test]
    fn memo_is_exactly_the_candidate_set(
        cuts in proptest::collection::vec(0usize..10_000, 0..5),
        run_first in any::<bool>(),
        bounded in any::<bool>(),
    ) {
        check_draw(&Draw { cuts, bounded, threads: 2, run_first, ..Draw::default() }, 0..7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random corpora, under every strategy in either configuration,
    /// the one-shot run equals a fresh session's `run` byte for byte,
    /// stats included.
    #[test]
    fn one_shot_run_equals_a_fresh_session_run(
        seed in 0u64..1_000_000,
        entities in 4usize..20,
        bounded in any::<bool>(),
    ) {
        check_draw(&Draw { entities, seed, bounded, ..Draw::default() }, 0..7);
    }
}

/// Ingest after `run`: the session extends the corpus it ran, through
/// three batches (sorted neighbourhood).
#[test]
fn run_then_ingest_composes() {
    let cuts = cut_at(&[(1, 3), (2, 3)]);
    let draw = Draw {
        cuts,
        threads: 2,
        run_first: true,
        ..Draw::default()
    };
    check_draw(&draw, [1]);
}

/// A session fed in two batches agrees with `compare_xtuples` + `decide`
/// straight off the x-tuples, for all seven strategies and both
/// configurations.
#[test]
fn streamed_result_agrees_with_paper_literal_reference() {
    let cuts = cut_at(&[(1, 2)]);
    for bounded in [false, true] {
        let draw = Draw {
            cuts: cuts.clone(),
            bounded,
            threads: 2,
            ..Draw::default()
        };
        check_draw(&draw, 0..7);
    }
}

/// Running the same sources again performs zero key renders, interns
/// zero new values and returns the identical result — on the live
/// session and on one reopened from its snapshot, under sorted
/// neighbourhood, blocking and multi-pass worlds.
#[test]
fn warm_rerun_performs_zero_key_renders() {
    let draw = Draw {
        threads: 2,
        run_first: true,
        ..Draw::default()
    };
    check_draw(&draw, [1, 3, 5]);
}

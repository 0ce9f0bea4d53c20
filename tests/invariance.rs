//! The engine's equality contract, every axis drawn at once, and fixed
//! inputs chosen against the delta emission, through the one harness of
//! `tests/common/mod.rs` (its module docs state the contract).

mod common;

use proptest::prelude::*;

use probdedup::core::pipeline::ReductionStrategy;
use probdedup::model::relation::XRelation;
use probdedup::model::xtuple::XTuple;
use probdedup::reduction::ConflictResolution;

use common::{check, check_draw, key, schema, Case, Draw, Restart};

impl Case {
    /// Exact, at `threads`, ingesting every batch, never restarted.
    fn plain(strategy: ReductionStrategy, threads: usize) -> Self {
        Self {
            strategy,
            bounded: false,
            threads,
            run_first: false,
            restart: Restart::None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every axis drawn at once — corpus, configuration, thread count,
    /// batch split with or without a leading `run`, and restart — under
    /// each of the seven reduction strategies (the configuration
    /// alternates across them).
    #[test]
    fn any_threads_split_and_restart_equal_the_one_shot_run(
        entities in 4usize..20,
        seed in 0u64..1_000_000,
        bounded in any::<bool>(),
        threads in 0usize..3,
        cuts in proptest::collection::vec(0usize..10_000, 0..5),
        run_first in any::<bool>(),
        restart in (0usize..3, 0usize..1000, 0usize..1000),
    ) {
        let threads = [1, 2, 8][threads];
        let draw = Draw { entities, seed, cuts, bounded, threads, run_first, restart };
        check_draw(&draw, 0..7);
    }
}

/// Inputs chosen against the delta emission: every key equal, a window of
/// 2 and one wider than the corpus, empty and single-row batches, and an
/// x-tuple whose two adjacent (collapsed) SNM entries a later row sorts
/// between.
#[test]
fn adversarial_batches_keep_the_session_equal_to_one_shot() {
    let schema = schema();
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
    let mut strategies = vec![
        (None, ReductionStrategy::Full),
        (
            None,
            ReductionStrategy::BlockingAlternatives { spec: key() },
        ),
    ];
    for window in [2, 3, 64] {
        let spec = key();
        let sorting = ReductionStrategy::SortingAlternatives { spec, window };
        let (spec, strategy) = (key(), ConflictResolution::MostProbableAlternative);
        let conflict = ReductionStrategy::ConflictResolved {
            spec,
            window,
            strategy,
        };
        strategies.extend([(Some(window), sorting), (Some(window), conflict)]);
    }
    for (name, sources) in &cases {
        for (window, strategy) in &strategies {
            let case = Case::plain(strategy.clone(), 1);
            check(&case, sources, &format!("{name}, window {window:?}"));
        }
    }
}

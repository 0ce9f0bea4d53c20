//! Thread-count determinism: the work-stealing executor reassembles
//! decisions in candidate order, so a run at any thread count is
//! **byte-identical** to one thread's on the same input — decisions down
//! to their similarity bits, stats, and the session snapshot bytes — in
//! both engine configurations. Each test pins the axes of a harness draw
//! (`tests/common/mod.rs`), which also pins what the bits should be
//! against the paper-literal reference.

mod common;

use common::{check_draw, corpus, Draw};

/// Over a thousand candidates under full comparison at eight threads, so
/// the pair executor hands out many chunks that the workers finish in any
/// order — under every strategy (full comparison exact, the others
/// alternating).
#[test]
fn threads8_is_byte_identical_to_threads1_interned() {
    let (entities, seed) = (30, 0xB10C5);
    let n = corpus(entities, seed).len();
    assert!(n * (n - 1) / 2 > 1000, "too few pairs to exercise stealing");
    let draw = Draw {
        entities,
        seed,
        cuts: vec![n / 2],
        threads: 8,
        ..Draw::default()
    };
    check_draw(&draw, 0..7);
}

/// The whole persisted session — decisions, similarities, tier counters —
/// is one byte string at 1, 2 and 8 threads, under every strategy, in
/// both configurations.
#[test]
fn session_snapshot_bytes_are_thread_invariant() {
    for threads in [2, 8] {
        for bounded in [false, true] {
            let draw = Draw {
                entities: 20,
                seed: 0x5A17,
                bounded,
                threads,
                ..Draw::default()
            };
            check_draw(&draw, 0..7);
        }
    }
}

/// Every run at four threads — each session step, a fresh session's
/// `run`, the one-shot run — is the one-thread one-shot run bit for bit,
/// so repeated runs are too.
#[test]
fn repeated_runs_are_reproducible() {
    let draw = Draw {
        cuts: vec![7, 19],
        threads: 4,
        ..Draw::default()
    };
    check_draw(&draw, 0..7);
}

//! The write-ahead journal's **crash contract**, end to end: a `kill -9`
//! at *any* point of the append / snapshot / compaction protocol recovers
//! (via `snapshot + journal tail`) exactly the partition of the committed
//! ingest prefix — never a half-applied batch, never a lost acknowledged
//! one. Four layers:
//!
//! * a **crash matrix** enumerating every interleaving point of the
//!   protocol (including the synthesized mid-compaction state a crash
//!   between the base write and the truncation leaves behind);
//! * the **run replay**: a multi-record tail replays as one ingest, and
//!   the recovered session equals the live one in everything but the
//!   cumulative tier counters, while classifying only the pairs that
//!   survive the tail;
//! * a **property test** over random batch splits × crash after any
//!   prefix of appends × an arbitrary snapshot/compaction point (a
//!   harness draw, `tests/common/mod.rs`);
//! * a **fuzz pass** over torn and bit-flipped journal tails: recovery
//!   must never panic, and whatever it applies must equal the partition
//!   of exactly the records it reports replayed.

mod common;

use std::path::Path;

use proptest::prelude::*;

use probdedup::core::pipeline::{DedupPipeline, DedupResult, ReductionStrategy};
use probdedup::core::session::DedupSession;
use probdedup::core::wal::{SessionJournal, WAL_HEADER_LEN};
use probdedup::model::relation::XRelation;
use probdedup::model::xtuple::XTuple;
use probdedup::reduction::ConflictResolution;

use common::{key, scratch, split_sources};

/// The workload corpus: two small dirty sources, concatenated.
fn corpus() -> Vec<XTuple> {
    common::corpus(12, 0x5EED_CAFE)
}

/// The crash-matrix pipeline: exact, sorted neighbourhood at window 4.
fn pipeline() -> DedupPipeline {
    let snm = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 4,
    };
    common::pipeline(snm, false, 2)
}

/// The partition after ingesting the first `k` batches (the reference a
/// crash at "k batches committed" must recover to).
fn reference_prefix(batches: &[XRelation], k: usize) -> DedupResult {
    let mut s = pipeline().session();
    for b in &batches[..k] {
        s.ingest(b).unwrap();
    }
    s.result()
}

fn assert_partition_eq(got: &DedupResult, want: &DedupResult, label: &str) {
    assert_eq!(got.decisions, want.decisions, "{label}: decisions differ");
    assert_eq!(got.clusters, want.clusters, "{label}: clusters differ");
}

/// One durable state a crash can leave behind: the snapshot bytes (if a
/// snapshot had completed) and the journal bytes at that instant.
struct CrashState {
    label: String,
    snap: Option<Vec<u8>>,
    wal: Vec<u8>,
    /// Ingest batches committed (journaled) at this point.
    committed: usize,
}

/// Recover a session from one crash image: restore the snapshot (or start
/// fresh), then open + replay the journal.
fn recover(state: &CrashState, dir: &Path) -> DedupSession {
    let wal_path = dir.join(format!("{}.wal", state.label.replace(' ', "-")));
    std::fs::write(&wal_path, &state.wal).unwrap();
    let mut session = match &state.snap {
        Some(bytes) => DedupSession::from_snapshot_bytes(bytes, &pipeline()).unwrap(),
        None => pipeline().session(),
    };
    let (_, _replay) = SessionJournal::open_and_replay(&wal_path, &mut session)
        .unwrap_or_else(|e| panic!("{}: recovery refused: {e}", state.label));
    session
}

/// The crash matrix: walk the full protocol once, capturing the durable
/// bytes at every interleaving point (plus the synthesized mid-compaction
/// state and torn-append states), then recover each image and assert the
/// partition equals the committed prefix's.
#[test]
fn crash_matrix_recovers_every_interleaving_point() {
    let tuples = corpus();
    let n = tuples.len();
    let batches = split_sources(&tuples, &[n / 3, 2 * n / 3]);
    assert_eq!(batches.len(), 3, "corpus too small to split three ways");

    let dir = scratch("wal-matrix");
    let wal_path = dir.join("live.wal");
    let mut states: Vec<CrashState> = Vec::new();
    let wal_bytes = || std::fs::read(&wal_path).unwrap();

    let mut live = pipeline().session();
    let (mut journal, _) = SessionJournal::open_and_replay(&wal_path, &mut live).unwrap();
    states.push(CrashState {
        label: "boot, nothing committed".into(),
        snap: None,
        wal: wal_bytes(),
        committed: 0,
    });

    // Append the first two batches, capturing after each fsync point.
    for (i, batch) in batches.iter().take(2).enumerate() {
        journal.ingest(&mut live, batch).unwrap();
        states.push(CrashState {
            label: format!("after append {}", i + 1),
            snap: None,
            wal: wal_bytes(),
            committed: i + 1,
        });
    }

    // Torn append: every-byte tearing is covered by the codec's unit
    // tests; here, representative cuts into the *last* frame of the
    // two-record file must recover exactly one batch.
    let two_records = wal_bytes();
    let one_record_len = states[1].wal.len();
    for cut in [
        one_record_len + 1,
        (one_record_len + two_records.len()) / 2,
        two_records.len() - 1,
    ] {
        states.push(CrashState {
            label: format!("append 2 torn at byte {cut}"),
            snap: None,
            wal: two_records[..cut].to_vec(),
            committed: 1,
        });
    }

    // Snapshot protocol. Crash windows, in order:
    //   (a) snapshot durable, compaction not started;
    //   (b) compaction's base_seq written, records not yet truncated;
    //   (c) compaction complete.
    let snap = live.to_snapshot_bytes();
    states.push(CrashState {
        label: "snapshot durable, pre-compaction".into(),
        snap: Some(snap.clone()),
        wal: wal_bytes(),
        committed: 2,
    });
    let mut mid_compact = wal_bytes();
    mid_compact[12..20].copy_from_slice(&live.journal_seq().to_le_bytes());
    states.push(CrashState {
        label: "mid-compaction (base written, not truncated)".into(),
        snap: Some(snap.clone()),
        wal: mid_compact,
        committed: 2,
    });
    journal.compact(live.journal_seq()).unwrap();
    assert_eq!(wal_bytes().len() as u64, WAL_HEADER_LEN);
    states.push(CrashState {
        label: "post-compaction".into(),
        snap: Some(snap.clone()),
        wal: wal_bytes(),
        committed: 2,
    });

    // Append past the snapshot: recovery must stack journal on snapshot.
    journal.ingest(&mut live, &batches[2]).unwrap();
    states.push(CrashState {
        label: "append after snapshot".into(),
        snap: Some(snap.clone()),
        wal: wal_bytes(),
        committed: 3,
    });
    let three = wal_bytes();
    states.push(CrashState {
        label: "append after snapshot, torn".into(),
        snap: Some(snap),
        wal: three[..three.len() - 3].to_vec(),
        committed: 2,
    });
    drop(journal);

    let references: Vec<DedupResult> = (0..=batches.len())
        .map(|k| reference_prefix(&batches, k))
        .collect();
    for state in &states {
        let recovered = recover(state, &dir);
        assert_partition_eq(
            &recovered.result(),
            &references[state.committed],
            &state.label,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live journaled session that ingested the corpus in five batches,
/// snapshotted (and compacted) after the first, and that snapshot: the
/// journal at `wal` holds the other four batches as its tail.
fn journaled(pipeline: &DedupPipeline, wal: &Path) -> (DedupSession, Vec<u8>) {
    let tuples = corpus();
    let n = tuples.len();
    let batches = split_sources(&tuples, &[n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5]);
    assert_eq!(batches.len(), 5, "corpus too small to split five ways");
    let mut live = pipeline.session();
    let (mut journal, _) = SessionJournal::open_and_replay(wal, &mut live).unwrap();
    journal.ingest(&mut live, &batches[0]).unwrap();
    let snap = live.to_snapshot_bytes();
    journal.compact(live.journal_seq()).unwrap();
    for batch in &batches[1..] {
        journal.ingest(&mut live, batch).unwrap();
    }
    (live, snap)
}

/// Recover `snapshot + journal tail`, returning the session and the
/// number of records replayed.
fn recover_tail(pipeline: &DedupPipeline, snap: &[u8], wal: &Path) -> (DedupSession, u64) {
    let mut session = DedupSession::from_snapshot_bytes(snap, pipeline).unwrap();
    let (_, replay) = SessionJournal::open_and_replay(wal, &mut session).unwrap();
    (session, replay.replayed)
}

/// Pairs the bounded configuration has classified, over all four tiers.
fn classified(session: &DedupSession) -> u64 {
    let s = session.stats();
    s.pairs_early_match + s.pairs_early_nonmatch + s.pairs_early_possible + s.pairs_exhausted
}

/// Replay applies the tail's run of ingest records as one ingest; the
/// recovered session must still equal the one-shot run over the batches
/// the live session ingested one by one — under a delta strategy and a
/// world strategy, in both configurations, over a four-record tail.
#[test]
fn a_replayed_tail_equals_the_live_session() {
    let tuples = corpus();
    let n = tuples.len();
    let cuts = vec![n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5];
    assert_eq!(split_sources(&tuples, &cuts).len(), 5, "too few batches");
    for bounded in [false, true] {
        let draw = common::Draw {
            entities: 12,
            seed: 0x5EED_CAFE,
            cuts: cuts.clone(),
            bounded,
            threads: 2,
            restart: (2, 1, 5),
            ..Default::default()
        };
        common::check_draw(&draw, [1, 5]);
    }
}

/// Replay classifies each pair that survives the tail once, and no pair
/// the tail pushes out again: over a four-record tail, the bounded tier
/// counters grow by exactly the final candidate pairs with a tail row.
/// Batch-by-batch replay, as the live session ingested, classifies the
/// pairs a later batch slid a window past as well.
#[test]
fn a_replayed_tail_classifies_only_the_pairs_that_survive_it() {
    let dir = scratch("wal-matrix");
    let strategies = [
        ReductionStrategy::ConflictResolved {
            spec: key(),
            window: 4,
            strategy: ConflictResolution::MostProbableAlternative,
        },
        ReductionStrategy::BlockingAlternatives { spec: key() },
        ReductionStrategy::Full,
    ];
    for reduction in strategies {
        let label = reduction.name();
        let p = common::pipeline(reduction.clone(), true, 2);
        let wal = dir.join(format!("{label}.wal"));
        let (live, snap) = journaled(&p, &wal);
        let snapshot = DedupSession::from_snapshot_bytes(&snap, &p).unwrap();
        let (recovered, replayed) = recover_tail(&p, &snap, &wal);
        assert_eq!(replayed, 4, "{label}");
        let surviving = recovered
            .result()
            .decisions
            .iter()
            .filter(|d| d.pair.1 >= snapshot.rows())
            .count() as u64;
        let replay_classified = classified(&recovered) - classified(&snapshot);
        assert_eq!(replay_classified, surviving, "{label}");
        let live_classified = classified(&live) - classified(&snapshot);
        if matches!(reduction, ReductionStrategy::ConflictResolved { .. }) {
            assert!(live_classified > surviving, "{label}: no pair departed");
        } else {
            assert_eq!(live_classified, surviving, "{label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any split of the corpus into ingest batches × a crash after any
    /// prefix of journal appends × an arbitrary snapshot/compaction point
    /// within that prefix recovers exactly the committed prefix (sorted
    /// neighbourhood, exact).
    #[test]
    fn any_split_and_crash_point_recovers_the_committed_prefix(
        cuts in proptest::collection::vec(0usize..10_000, 0..3),
        snap_raw in 0usize..8,
        crash_raw in 0usize..8,
    ) {
        let draw = common::Draw {
            entities: 12,
            seed: 0x5EED_CAFE,
            cuts,
            threads: 2,
            restart: (2, snap_raw, crash_raw),
            ..Default::default()
        };
        common::check_draw(&draw, [1]);
    }

    /// Torn and bit-flipped journal tails: recovery never panics, and a
    /// successful recovery equals the partition of exactly the records it
    /// reports replayed (a refused journal — e.g. a flipped header — is
    /// also acceptable; silent wrong data is not).
    #[test]
    fn corrupt_tails_recover_to_a_committed_prefix_or_refuse(
        cut_frac in 0.0f64..1.0,
        flip_on in any::<bool>(),
        flip_pos_frac in 0.0f64..1.0,
        flip_xor in 0u8..255,
    ) {
        let tuples = corpus();
        let n = tuples.len();
        let batches = split_sources(&tuples, &[n / 3, 2 * n / 3]);

        let dir = scratch("wal-matrix");
        let wal_path = dir.join("s.wal");
        let mut live = pipeline().session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal_path, &mut live).unwrap();
        for batch in &batches {
            journal.ingest(&mut live, batch).unwrap();
        }
        drop(journal);

        // Damage the file: truncate at a random position, then optionally
        // flip one byte of what remains.
        let full = std::fs::read(&wal_path).unwrap();
        let keep = ((full.len() as f64) * cut_frac) as usize;
        let mut bytes = full[..keep].to_vec();
        if flip_on && !bytes.is_empty() {
            let pos = (((bytes.len() - 1) as f64) * flip_pos_frac) as usize;
            bytes[pos] ^= flip_xor.wrapping_add(1); // never a zero-flip
        }
        std::fs::write(&wal_path, &bytes).unwrap();

        let mut recovered = pipeline().session();
        match SessionJournal::open_and_replay(&wal_path, &mut recovered) {
            Err(_) => {} // refused loudly — acceptable for header damage
            Ok((_, replay)) => {
                let k = usize::try_from(replay.replayed).unwrap();
                prop_assert!(k <= batches.len());
                let reference = reference_prefix(&batches, k);
                assert_partition_eq(
                    &recovered.result(),
                    &reference,
                    &format!("keep={keep} flip_on={flip_on} replayed={k}"),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

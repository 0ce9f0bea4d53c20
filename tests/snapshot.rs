//! The crash-safety contract of session snapshots, end to end:
//!
//! * **Round trip** (property): save → open reproduces the warm session —
//!   identical match / possible / non-match partition, identical clusters,
//!   and an identical-corpus rerun performs **zero** key renders, across
//!   exact/classify-only and reduction strategies.
//! * **State, not caches**: sections 4–6 (the interner pools and the
//!   retired similarity memo) are written as empty pools, and any payload
//!   there is frame-checked and ignored; `open` rebuilds the pools by
//!   re-keying the relation, so they are those of a fresh session.
//! * **Corruption matrix** (property): flipping or truncating arbitrary
//!   bytes of a valid snapshot always yields a typed
//!   [`SnapshotError`] — never a panic, never a silently misread session.
//! * **Kill points**: a crash at any step of the atomic write-temp →
//!   fsync → rename protocol leaves the previous snapshot loadable.
//! * **Golden fixtures**: committed format-version-1 snapshots still
//!   load — the canary that format changes bump the version instead of
//!   silently breaking old files. `entity-memo-v1.snap` is one from when
//!   sessions memoized entity partitions in a trailing section 9: the
//!   section is still frame-checked, its payload ignored, and nothing
//!   writes it any more.
//! * **Stale-memo fixture**: a committed format-version-1 snapshot from
//!   when the decision memo kept every pair ever classified still opens;
//!   the decisions of pairs that left the candidate set are dropped.
//! * **Similarity-memo fixture**: a committed format-version-1 snapshot
//!   from when the engine memoized kernel results in section 5 still
//!   opens; those entries are ignored.
//! * **Old-engine files**: a format-v1 snapshot written by the removed
//!   plain (uncached) engine is refused with a typed
//!   [`SnapshotError::ConfigMismatch`] that says to re-run the corpus.
//! * **Retired-strategy files**: committed format-v1 snapshots written
//!   under the retired `snm-ranked` and `blocking-cluster` reductions are
//!   refused by every current pipeline with a typed
//!   [`SnapshotError::ConfigMismatch`] that names the retired strategy.
//! * **Undecided candidates**: a snapshot opened under a wider window or
//!   another key, whose decisions miss some regenerated candidates, is a
//!   [`SnapshotError::ConfigMismatch`], not `Malformed`.
//!
//! [`SnapshotError`]: probdedup::model::snapshot::SnapshotError

use std::sync::Arc;

use proptest::prelude::*;

use probdedup::core::pipeline::{DedupPipeline, PairDecision, ReductionStrategy};
use probdedup::core::prepare::Preparation;
use probdedup::core::session::DedupSession;
use probdedup::core::snapshot::{
    staging_path, TAG_CACHES, TAG_CONFIG, TAG_DECIDED, TAG_ENTITIES, TAG_JOURNAL, TAG_MATCH_POOL,
    TAG_OFFSETS, TAG_REDUCTION, TAG_RELATION,
};
use probdedup::core::test_support::all_strategies;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::combine::WeightedSum;
use probdedup::decision::derive_sim::ExpectedSimilarity;
use probdedup::decision::threshold::Thresholds;
use probdedup::decision::xmodel::SimilarityBasedModel;
use probdedup::entity::{ClusterStrategy, ResolveEntities};
use probdedup::matching::vector::AttributeComparators;
use probdedup::model::relation::XRelation;
use probdedup::model::snapshot::{
    fnv1a, SectionWriter, SnapshotError, SnapshotReader, SnapshotWriter,
};
use probdedup::reduction::{KeyPart, KeySpec};
use probdedup::textsim::JaroWinkler;

/// The workload: one seeded dirty corpus split into two sources.
fn sources() -> Vec<XRelation> {
    let ds = generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities: 12,
            sources: 2,
            typo_rate: 0.3,
            uncertainty_rate: 0.4,
            xtuple_rate: 0.3,
            maybe_rate: 0.2,
            seed: 0xD15C,
            ..DatasetConfig::default()
        },
    );
    ds.relations
}

fn key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

/// Build the configured front door (exact model or bounded classify-only).
fn pipeline(strategy: ReductionStrategy, bounded: bool) -> DedupPipeline {
    let schema = sources()[0].schema().clone();
    let phi = WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).unwrap();
    let thresholds = Thresholds::new(0.72, 0.82).unwrap();
    let b = DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(&schema, JaroWinkler::new()))
        .reduction(strategy)
        .threads(2);
    if bounded {
        b.classify_only(phi, thresholds).build()
    } else {
        b.model(Arc::new(SimilarityBasedModel::new(
            Arc::new(phi),
            Arc::new(ExpectedSimilarity),
            thresholds,
        )))
        .build()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("probdedup-snap-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One canonical warm session + its snapshot bytes, for the corruption
/// matrix (built once per property run — the bytes are deterministic).
fn canonical_snapshot() -> (DedupPipeline, Vec<u8>) {
    let srcs = sources();
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let strategy = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 4,
    };
    let pipe = pipeline(strategy.clone(), false);
    let mut session = pipe.session();
    session.run(&refs).unwrap();
    let bytes = session.to_snapshot_bytes();
    (pipeline(strategy, false), bytes)
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("committed fixture {path}: {e}"))
}

/// What the corruption matrix damages: the canonical snapshot, or the
/// committed file that still carries a legacy section 9 (same pipeline).
fn corruption_input(legacy: bool) -> (DedupPipeline, Vec<u8>) {
    let (pipe, canonical) = canonical_snapshot();
    let bytes = if legacy {
        fixture("entity-memo-v1.snap")
    } else {
        canonical
    };
    (pipe, bytes)
}

/// The sections every file has, in order (8 and 9 are optional trailers).
const REQUIRED_TAGS: [u32; 7] = [
    TAG_CONFIG,
    TAG_RELATION,
    TAG_OFFSETS,
    TAG_MATCH_POOL,
    TAG_CACHES,
    TAG_REDUCTION,
    TAG_DECIDED,
];

/// Assert that `bytes` holds the required sections, then exactly
/// `trailers`, then nothing.
fn assert_ends_with_sections(bytes: &[u8], trailers: &[u32], label: &str) {
    let mut reader = SnapshotReader::open(bytes).unwrap();
    for tag in REQUIRED_TAGS.iter().chain(trailers) {
        reader
            .section(*tag, "section")
            .unwrap_or_else(|e| panic!("{label}: section {tag}: {e}"));
    }
    assert!(!reader.has_more(), "{label}: sections follow {trailers:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// save → open over any strategy/mode reproduces the session: same
    /// partition, same clusters, and the reopened session's
    /// identical-corpus rerun renders **zero** keys.
    #[test]
    fn snapshot_roundtrip_reproduces_warm_session(
        strat_idx in 0usize..7,
        bounded in any::<bool>(),
    ) {
        let srcs = sources();
        let refs: Vec<&XRelation> = srcs.iter().collect();
        let strategy = all_strategies(&key()).swap_remove(strat_idx);
        let label = format!("{} bounded={bounded}", strategy.name());

        let pipe = pipeline(strategy.clone(), bounded);
        let mut session = pipe.session();
        let before = session.run(&refs).unwrap();
        let renders = session.key_render_count();
        let bytes = session.to_snapshot_bytes();

        let mut reopened = DedupSession::from_snapshot_bytes(&bytes, &pipe)
            .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
        // Opening re-keys the resident corpus into fresh pools: one render
        // per distinct (value, prefix), as many as the saved session's
        // single run cost. The decision memo answers `result()` without
        // classifying anything.
        prop_assert_eq!(reopened.key_render_count(), renders, "{}: open rendered", label);
        let restored = reopened.result();
        prop_assert_eq!(&before.decisions, &restored.decisions, "{}: partition", label);
        prop_assert_eq!(&before.clusters, &restored.clusters, "{}: clusters", label);
        prop_assert_eq!(&before.source_offsets, &restored.source_offsets, "{}", label);

        // An identical-corpus rerun on the reopened session stays fully
        // warm: the pools open rebuilt already hold every key.
        let again = reopened.run(&refs).unwrap();
        prop_assert_eq!(reopened.key_render_count(), renders, "{}: rerun rendered", label);
        prop_assert_eq!(&before.decisions, &again.decisions, "{}: rerun partition", label);
    }

    /// Corruption matrix: flip 1–8 arbitrary bytes of a valid snapshot —
    /// loading must return a typed error (the checksums catch every flip)
    /// and must never panic or silently misread.
    #[test]
    fn corrupted_snapshot_always_errors(
        legacy in any::<bool>(),
        flips in proptest::collection::vec((0usize..1_000_000, 1u8..=255), 1..8),
    ) {
        let (pipe, bytes) = corruption_input(legacy);
        let mut corrupt = bytes.clone();
        let mut changed = false;
        for (pos, xor) in flips {
            let pos = pos % corrupt.len();
            corrupt[pos] ^= xor;
            changed = true;
        }
        prop_assert!(changed);
        match DedupSession::from_snapshot_bytes(&corrupt, &pipe) {
            Err(_) => {} // every corruption is a typed error
            Ok(_) => prop_assert!(false, "corrupted snapshot loaded silently"),
        }
    }

    /// Truncation at any length — including 0 and mid-header — is a typed
    /// error, never a panic.
    #[test]
    fn truncated_snapshot_always_errors(legacy in any::<bool>(), cut in 0usize..1_000_000) {
        let (pipe, bytes) = corruption_input(legacy);
        let cut = cut % bytes.len(); // strictly shorter than the file
        let truncated = &bytes[..cut];
        match DedupSession::from_snapshot_bytes(truncated, &pipe) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncated snapshot loaded silently"),
        }
    }
}

/// A snapshot opened under a different pipeline configuration is refused
/// up front with [`SnapshotError::ConfigMismatch`] — not misinterpreted.
#[test]
fn mismatched_pipeline_is_refused() {
    let (_, bytes) = canonical_snapshot();
    let other = pipeline(ReductionStrategy::Full, false);
    match DedupSession::from_snapshot_bytes(&bytes, &other) {
        Err(SnapshotError::ConfigMismatch { detail }) => {
            assert!(detail.contains("reduction"), "{detail}");
        }
        Err(other) => panic!("expected ConfigMismatch, got {other}"),
        Ok(_) => panic!("mismatched configuration accepted"),
    }
}

/// The same `snm-alternatives` strategy under a wider window or another key
/// regenerates candidates the snapshot never decided. Every section is
/// checksum-valid, so that is a [`SnapshotError::ConfigMismatch`] naming
/// the configuration fields CONFIG does not record — not corruption.
#[test]
fn uncovered_candidates_are_a_config_mismatch() {
    let (_, bytes) = canonical_snapshot();
    let wider = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 8,
    };
    let other_key = ReductionStrategy::SortingAlternatives {
        spec: KeySpec::new(vec![KeyPart::prefix(1, 3), KeyPart::prefix(3, 2)]),
        window: 4,
    };
    for (label, strategy) in [("window 8", wider), ("another key", other_key)] {
        match DedupSession::from_snapshot_bytes(&bytes, &pipeline(strategy, false)) {
            Err(SnapshotError::ConfigMismatch { detail }) => {
                for field in ["key", "window", "world selection", "conflict resolution"] {
                    assert!(detail.contains(field), "{label}: {detail}");
                }
            }
            Err(other) => panic!("{label}: expected ConfigMismatch, got {other}"),
            Ok(_) => panic!("{label}: a snapshot opened with undecided candidates"),
        }
    }
}

/// A format-v1 file written by the removed plain (uncached) engine — its
/// CONFIG section carries `cached = 0` — is refused with a typed
/// [`SnapshotError::ConfigMismatch`] telling the operator the file
/// predates the single engine and the corpus must be re-run. Never
/// `Malformed` (the bytes are fine), never a panic. The bytes are
/// assembled by hand, section by section, exactly as that engine wrote an
/// empty full-comparison session.
#[test]
fn old_plain_engine_snapshot_is_refused_typed() {
    let pipe = pipeline(ReductionStrategy::Full, false);
    let mut snap = SnapshotWriter::new();

    let mut w = SectionWriter::new();
    w.put_u32(4); // arity
    w.put_str("full"); // reduction strategy
    w.put_u8(0); // cached: the plain engine
    w.put_u8(0); // bounded
    snap.section(TAG_CONFIG, w);
    let mut w = SectionWriter::new();
    w.put_u8(0); // no resident relation
    snap.section(TAG_RELATION, w);
    let mut w = SectionWriter::new();
    w.put_len(0); // no source offsets
    snap.section(TAG_OFFSETS, w);
    let mut w = SectionWriter::new();
    w.put_u8(0); // the plain engine kept no match pool
    snap.section(TAG_MATCH_POOL, w);
    let mut w = SectionWriter::new();
    w.put_u32(0); // ... and no caches
    snap.section(TAG_CACHES, w);
    let mut w = SectionWriter::new();
    w.put_u8(0); // full comparison keeps no key table
    snap.section(TAG_REDUCTION, w);
    let mut w = SectionWriter::new();
    w.put_len(0); // no decisions
    for _ in 0..4 {
        w.put_u64(0); // tier counters
    }
    snap.section(TAG_DECIDED, w);
    let mut w = SectionWriter::new();
    w.put_u64(0); // never journaled
    snap.section(TAG_JOURNAL, w);
    let mut w = SectionWriter::new();
    w.put_u32(0); // no cached entity partitions
    snap.section(TAG_ENTITIES, w);

    match DedupSession::from_snapshot_bytes(&snap.finish(), &pipe) {
        Err(SnapshotError::ConfigMismatch { detail }) => {
            assert!(detail.contains("predates the single"), "{detail}");
            assert!(detail.contains("re-run the corpus"), "{detail}");
        }
        Err(other) => panic!("expected ConfigMismatch, got {other}"),
        Ok(_) => panic!("a plain-engine snapshot was accepted"),
    }
}

/// `tests/fixtures/snm-ranked-v1.snap` and `blocking-cluster-v1.snap` were
/// written by the last commit that had the `snm-ranked` (expected-score
/// ranking, window 4) and `blocking-cluster` (default configuration)
/// reductions, over the corpus `golden-v1.snap` holds. No current pipeline
/// opens them: each strategy is refused by name, never reinterpreted as
/// another. The committed files have no regenerator.
#[test]
fn retired_strategy_snapshots_are_refused_by_name() {
    for (name, retired) in [
        ("snm-ranked-v1.snap", "snm-ranked"),
        ("blocking-cluster-v1.snap", "blocking-cluster"),
    ] {
        let bytes = fixture(name);
        assert_ends_with_sections(&bytes, &[TAG_JOURNAL], name);
        for strategy in all_strategies(&key()) {
            let label = format!("{name} under {}", strategy.name());
            match DedupSession::from_snapshot_bytes(&bytes, &pipeline(strategy, false)) {
                Err(SnapshotError::ConfigMismatch { detail }) => {
                    assert!(
                        detail.contains(&format!("'{retired}'")),
                        "{label}: {detail}"
                    );
                }
                Err(other) => panic!("{label}: expected ConfigMismatch, got {other}"),
                Ok(_) => panic!("{label}: a retired strategy's snapshot opened"),
            }
        }
    }
}

/// An unsupported future format version is refused by its header, before
/// any payload is interpreted.
#[test]
fn future_format_version_is_refused() {
    let (pipe, mut bytes) = canonical_snapshot();
    // The version little-endian u32 sits right after the 8-byte magic.
    bytes[8] = 0xFF;
    match DedupSession::from_snapshot_bytes(&bytes, &pipe) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_ne!(found, supported);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other}"),
        Ok(_) => panic!("future version accepted"),
    }
}

/// Kill-point matrix for the atomic-write protocol: simulate a crash at
/// each step and assert the previous snapshot stays loadable.
///
/// The protocol is write `<path>.tmp` → fsync → rename. A crash *before*
/// the rename leaves `<path>` untouched (whatever junk is in the staging
/// file is invisible); a crash *after* is indistinguishable from success.
/// We reconstruct each intermediate on-disk state by hand.
#[test]
fn crash_mid_save_preserves_previous_snapshot() {
    let dir = temp_dir("killpoints");
    let path = dir.join("session.snap");
    let srcs = sources();
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let strategy = ReductionStrategy::SortingAlternatives {
        spec: key(),
        window: 4,
    };
    let pipe = pipeline(strategy, false);
    let mut session = pipe.session();
    session.run(&refs).unwrap();
    session.save(&path).expect("initial save");
    let good = std::fs::read(&path).unwrap();
    let next = session.to_snapshot_bytes();

    // Kill point 1: crashed after creating an empty staging file.
    // Kill point 2: crashed mid-write (truncated staging contents).
    // Kill point 3: crashed after the full write but before the rename.
    let staged: [&[u8]; 3] = [b"", &next[..next.len() / 2], &next];
    for (i, partial) in staged.iter().enumerate() {
        std::fs::write(staging_path(&path), partial).unwrap();
        let reopened = DedupSession::open(&path, &pipe)
            .unwrap_or_else(|e| panic!("kill point {i}: previous snapshot unloadable: {e}"));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "kill point {i}: snapshot bytes changed without a rename"
        );
        assert_eq!(reopened.decided_count(), session.decided_count());
        // Recovery: the next save replaces the stale staging file and
        // lands atomically.
        session.save(&path).expect("save over stale staging file");
        assert!(!staging_path(&path).exists(), "stale temp left behind");
        assert_eq!(std::fs::read(&path).unwrap(), next);
        std::fs::write(&path, &good).unwrap(); // reset for the next kill point
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed format-version-1 fixtures still load and reproduce their
/// partition — the canary that format changes bump
/// [`FORMAT_VERSION`](probdedup::model::snapshot::FORMAT_VERSION) instead
/// of silently reinterpreting old files. `golden-v1.snap` ends at section
/// 7; `entity-memo-v1.snap` was written by the last commit that memoized
/// entity partitions (cb19419, all three strategies resolved before the
/// save) and ends with a section 9 no current writer produces — hence a
/// committed file without a regenerator. Either way the reopened session
/// resolves entities like a fresh run, and what it saves ends at section 8.
/// Regenerate the golden one (after a deliberate version bump) with:
/// `cargo test --test snapshot regenerate_golden_fixture -- --ignored`.
#[test]
fn golden_fixture_still_loads() {
    let (pipe, _) = canonical_snapshot();
    let srcs = sources();
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let mut fresh = pipe.session();
    let fresh_result = fresh.run(&refs).unwrap();

    let fixtures: [(&str, &[u32]); 2] = [
        ("golden-v1.snap", &[]),
        ("entity-memo-v1.snap", &[TAG_JOURNAL, TAG_ENTITIES]),
    ];
    for (name, trailers) in fixtures {
        let bytes = fixture(name);
        assert_ends_with_sections(&bytes, trailers, name);

        let reopened = DedupSession::from_snapshot_bytes(&bytes, &pipe)
            .unwrap_or_else(|e| panic!("{name} must load: {e}"));
        // Its decisions agree with a fresh run of the same seeded corpus,
        // and so does every entity partition computed from them.
        let restored = reopened.result();
        assert_eq!(fresh_result.decisions, restored.decisions, "{name}");
        assert_eq!(fresh_result.clusters, restored.clusters, "{name}");
        for strategy in ClusterStrategy::ALL {
            assert_eq!(
                reopened.resolve_entities(strategy),
                fresh.resolve_entities(strategy),
                "{name}: {strategy}"
            );
        }

        // Re-saved, the file ends after section 8 and opens again.
        let resaved = reopened.to_snapshot_bytes();
        assert_ends_with_sections(&resaved, &[TAG_JOURNAL], name);
        let again = DedupSession::from_snapshot_bytes(&resaved, &pipe).unwrap();
        assert_eq!(again.result().decisions, restored.decisions, "{name}");
    }
}

/// The legacy section 9 is *verified, then ignored*: damage the fixture's
/// trailers (sections 8 and 9 and the file checksum; sections 1–7 are the
/// proptests' ground) at **every** offset — truncation and a bit flip,
/// both as-is (the whole-file checksum answers) and re-sealed under a
/// recomputed whole-file checksum (the section frames answer) — and
/// opening is a typed [`SnapshotError`] each time, never a panic and
/// never a session, but for the two cuts that leave a well-formed older
/// file. Re-sealed, a flipped payload byte of section 9 is that section's
/// `ChecksumMismatch`, and bytes appended after it are `TrailingBytes`.
#[test]
fn legacy_entities_section_is_verified_at_every_offset() {
    let (pipe, bytes) = corruption_input(true);
    let body = &bytes[..bytes.len() - 8];
    let reseal = |mut body: Vec<u8>| {
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    };
    assert_eq!(
        reseal(body.to_vec()),
        bytes,
        "reseal reproduces the envelope"
    );
    let open = |bytes: &[u8]| DedupSession::from_snapshot_bytes(bytes, &pipe).err();

    // Section 9 is the last frame: tag · len · payload · checksum.
    let mut reader = SnapshotReader::open(&bytes).unwrap();
    for tag in REQUIRED_TAGS.into_iter().chain([TAG_JOURNAL]) {
        reader.section(tag, "skipped section").unwrap();
    }
    let payload_len = reader
        .section(TAG_ENTITIES, "entities section")
        .unwrap()
        .remaining();
    assert!(payload_len > 0 && !reader.has_more());
    let payload = body.len() - 8 - payload_len..body.len() - 8;
    // Sections 8 and 9 are optional, so a file that ends (under a valid
    // envelope) right after section 7 or section 8 is an older file.
    let after_journal = payload.start - 12;
    let after_decided = after_journal - 28;

    for at in after_decided..bytes.len() {
        assert!(open(&bytes[..at]).is_some(), "cut at {at} opened");
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x20;
        assert!(open(&flipped).is_some(), "flip at {at} opened");
    }
    for at in after_decided..body.len() {
        assert_eq!(
            open(&reseal(body[..at].to_vec())).is_none(),
            at == after_decided || at == after_journal,
            "re-sealed cut at {at}"
        );
        let mut flipped = body.to_vec();
        flipped[at] ^= 0x20;
        let err = open(&reseal(flipped));
        if payload.contains(&at) {
            assert!(
                matches!(
                    err,
                    Some(SnapshotError::ChecksumMismatch {
                        context: "entities section"
                    })
                ),
                "re-sealed flip at {at} inside section 9: {err:?}"
            );
        } else {
            assert!(err.is_some(), "re-sealed flip at {at} opened");
        }
    }
    let mut extended = body.to_vec();
    extended.push(0);
    assert!(matches!(
        open(&reseal(extended)),
        Some(SnapshotError::TrailingBytes { extra: 1, .. })
    ));
}

/// `tests/fixtures/stale-memo-v1.snap` was written by the last commit
/// whose decision memo kept *every pair ever classified* (a35770c): the
/// seeded corpus ingested in four batches under SNM window 4, so its
/// DECIDED section holds 73 decisions for 51 candidates — 22 of pairs a
/// later batch's windows slid past. Such a file still opens (format v1 is
/// unchanged): the departed pairs' decisions are dropped, never rejected,
/// and the partition is the one that commit reported. The current writer
/// cannot produce such a file, which is why it is a committed fixture
/// without a regenerator.
#[test]
fn stale_memo_fixture_opens_pruned() {
    let bytes = fixture("stale-memo-v1.snap");

    // The file really is stale: skip to its DECIDED section and count.
    let mut reader = SnapshotReader::open(&bytes).unwrap();
    for tag in &REQUIRED_TAGS[..6] {
        reader.section(*tag, "skipped section").unwrap();
    }
    let stored = reader
        .section(TAG_DECIDED, "decisions section")
        .unwrap()
        .take_len(25)
        .unwrap();
    assert_eq!(stored, 73);

    let (pipe, _) = canonical_snapshot();
    let reopened =
        DedupSession::from_snapshot_bytes(&bytes, &pipe).expect("stale-memo fixture must load");
    assert_eq!(reopened.candidate_count(), 51);
    assert_eq!(reopened.decided_count(), 51);
    let restored = reopened.result();
    assert_eq!(
        restored.clusters,
        [[1, 11], [3, 12], [5, 13], [7, 18], [15, 16]]
    );
    assert_eq!(restored.source_offsets, [0, 5, 10, 15]);

    // The same rows in one batch decide every candidate identically, and
    // what is saved from here on holds the candidates' decisions only.
    let srcs = sources();
    let refs: Vec<&XRelation> = srcs.iter().collect();
    let fresh = pipe.session().run(&refs).unwrap();
    assert_eq!(fresh.decisions, restored.decisions);
    assert!(reopened.to_snapshot_bytes().len() < bytes.len());
}

/// The payload range of section `tag` in the snapshot `bytes`.
fn payload_range(bytes: &[u8], tag: u32) -> std::ops::Range<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut frame = 12; // magic + version
    loop {
        let payload = frame + 12..frame + 12 + u64_at(frame + 4);
        if u32::from_le_bytes(bytes[frame..frame + 4].try_into().unwrap()) == tag {
            return payload;
        }
        frame = payload.end + 8;
    }
}

/// `bytes` with section `tag`'s payload replaced by `payload`, re-sealed:
/// the frame's length and checksum and the whole-file checksum are
/// recomputed, so only the reader's view of the payload can refuse it.
fn reseal_section(bytes: &[u8], tag: u32, payload: &[u8]) -> Vec<u8> {
    let old = payload_range(bytes, tag);
    let mut out = bytes[..old.start - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(&bytes[old.end + 8..bytes.len() - 8]);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The classify-only pipeline `similarity-memo-v1.snap` was written under.
fn similarity_memo_pipeline() -> DedupPipeline {
    pipeline(
        ReductionStrategy::SortingAlternatives {
            spec: key(),
            window: 4,
        },
        true,
    )
}

/// `tests/fixtures/similarity-memo-v1.snap` was written by the last commit
/// that memoized kernel results (d17792e): the seeded corpus ingested in
/// two batches, classify-only under SNM window 4, so its section 5 holds
/// similarity and below-cut verdict entries. The file opens and serves the
/// partition that commit reported; every pair keeps its class under a
/// fresh ingest; re-saved, section 5 is empty.
#[test]
fn similarity_memo_fixture_opens() {
    let bytes = fixture("similarity-memo-v1.snap");
    let pipe = similarity_memo_pipeline();
    let reopened = DedupSession::from_snapshot_bytes(&bytes, &pipe)
        .expect("similarity-memo fixture must load");
    let partition = reopened.partition();
    assert_eq!((partition.rows, partition.candidates), (19, 51));
    assert_eq!((partition.matches, partition.possible), (5, 0));
    assert_eq!(
        partition.clusters,
        [[1, 11], [3, 12], [5, 13], [7, 18], [15, 16]]
    );
    let mut fresh = pipe.session();
    for src in &sources() {
        fresh.ingest(src).unwrap();
    }
    let class = |d: &PairDecision| (d.pair, d.class);
    let restored = reopened.result();
    assert!(restored
        .decisions
        .iter()
        .map(class)
        .eq(fresh.result().decisions.iter().map(class)));
    assert_eq!(restored.source_offsets, [0, 10]);

    let resaved = reopened.to_snapshot_bytes();
    let mut reader = SnapshotReader::open(&resaved).unwrap();
    for tag in &REQUIRED_TAGS[..4] {
        reader.section(*tag, "skipped section").unwrap();
    }
    let mut caches = reader.section(TAG_CACHES, "caches section").unwrap();
    assert_eq!(caches.take_u32().unwrap(), 0);
    caches.finish().unwrap();
}

/// A save writes sections 4–6 exactly as older writers wrote a fresh
/// session's empty pools, whatever the session's pools hold: section 4 a
/// present flag and an empty value pool; section 5 zero attributes;
/// section 6 `00` for full comparison (no key table), otherwise `01`,
/// an empty value pool, an empty key pool, no prefix memo, no concat memo
/// and zero renders. Older readers therefore open new files and re-key.
#[test]
fn pool_sections_are_written_as_empty_pools() {
    let srcs = sources();
    let refs: Vec<&XRelation> = srcs.iter().collect();
    for strategy in all_strategies(&key()) {
        let name = strategy.name();
        let keyed = !matches!(strategy, ReductionStrategy::Full);
        let mut session = pipeline(strategy, false).session();
        session.run(&refs).unwrap();
        assert!(session.interned_value_count() > 1, "{name}");
        let bytes = session.to_snapshot_bytes();
        let payload = |tag| &bytes[payload_range(&bytes, tag)];
        assert_eq!(
            payload(TAG_MATCH_POOL),
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            "{name}"
        );
        assert_eq!(payload(TAG_CACHES), [0; 4], "{name}");
        let mut reduction = vec![u8::from(keyed)];
        if keyed {
            reduction.extend([0; 40]);
        }
        assert_eq!(payload(TAG_REDUCTION), reduction, "{name}");
    }
}

/// Open rebuilds the pools from the resident relation, so after `run(A)`,
/// `run(B)`, save and open they hold B's values and keys only — those of
/// a fresh session that ran B — not the A values the saved session kept.
#[test]
fn reopened_pools_are_a_fresh_sessions() {
    let srcs = sources();
    for strategy in all_strategies(&key()) {
        let name = strategy.name();
        let pipe = pipeline(strategy, false);
        let mut session = pipe.session();
        session.run(&[&srcs[0]]).unwrap();
        session.run(&[&srcs[1]]).unwrap();
        let mut fresh = pipe.session();
        fresh.run(&[&srcs[1]]).unwrap();
        assert!(
            session.interned_value_count() > fresh.interned_value_count(),
            "{name}: the saved session carries the first corpus's values"
        );

        let reopened = DedupSession::from_snapshot_bytes(&session.to_snapshot_bytes(), &pipe)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            reopened.interned_value_count(),
            fresh.interned_value_count(),
            "{name}"
        );
        assert_eq!(
            reopened.key_render_count(),
            fresh.key_render_count(),
            "{name}"
        );
        assert_eq!(
            reopened.result().decisions,
            fresh.result().decisions,
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sections 4–6 of a committed fixture are frame-checked and their
    /// payloads ignored: the fixtures hold populated pools and memos
    /// there, and any other payload, re-sealed under valid checksums,
    /// opens to the same partition. (An unsealed change is caught by the
    /// checksums — the corruption matrix above.)
    #[test]
    fn resealed_pool_sections_open_to_the_same_partition(
        similarity_memo in any::<bool>(),
        section in 0usize..3,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (name, pipe) = if similarity_memo {
            ("similarity-memo-v1.snap", similarity_memo_pipeline())
        } else {
            ("golden-v1.snap", canonical_snapshot().0)
        };
        let tag = [TAG_MATCH_POOL, TAG_CACHES, TAG_REDUCTION][section];
        let bytes = fixture(name);
        let original = bytes[payload_range(&bytes, tag)].to_vec();
        prop_assert_eq!(&reseal_section(&bytes, tag, &original), &bytes);

        let want = DedupSession::from_snapshot_bytes(&bytes, &pipe).unwrap().partition();
        let forged = reseal_section(&bytes, tag, &payload);
        match DedupSession::from_snapshot_bytes(&forged, &pipe) {
            Ok(reopened) => prop_assert_eq!(reopened.partition(), want, "{} section {}", name, tag),
            Err(e) => prop_assert!(false, "{} section {}: {}", name, tag, e),
        }
    }
}

/// Writes `tests/fixtures/golden-v1.snap`. Ignored in normal runs — the
/// fixture is committed; rerun explicitly only after a deliberate format
/// change (which must also bump `FORMAT_VERSION`).
#[test]
#[ignore = "regenerates the committed golden fixture"]
fn regenerate_golden_fixture() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::create_dir_all(dir).unwrap();
    let (_, bytes) = canonical_snapshot();
    std::fs::write(format!("{dir}/golden-v1.snap"), bytes).unwrap();
}

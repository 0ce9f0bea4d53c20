//! Crash-safe session persistence: the file-level layout and atomic-write
//! protocol of [`DedupSession::save`](crate::session::DedupSession::save) /
//! [`open`](crate::session::DedupSession::open).
//!
//! The byte-level primitives (framed checksummed sections, model codecs)
//! live in [`probdedup_model::snapshot`]; this module owns what is
//! *session-specific*: which sections a session file contains, in which
//! order, and how the file reaches disk without a crash window.
//!
//! # Section layout (format version 1)
//!
//! Sections appear in exactly this order, each framed as
//! `tag · len · payload · checksum` by the model-layer writer:
//!
//! | tag | section    | contents                                              |
//! |-----|------------|-------------------------------------------------------|
//! | 1   | config     | arity, reduction name, engine + bounded flags         |
//! | 2   | relation   | the **prepared** resident [`XRelation`] (or absent)   |
//! | 3   | offsets    | per-source row offsets into the combined relation     |
//! | 4   | match pool | the matching [`ValuePool`] in dense symbol order      |
//! | 5   | caches     | *(legacy)* written empty; old entries checked+dropped |
//! | 6   | reduction  | the warm [`KeyTable`] pools (values, keys, memos)     |
//! | 7   | decisions  | every current candidate pair's decision + tier counts |
//! | 8   | journal    | *(optional)* highest applied WAL sequence number      |
//! | 9   | entities   | *(legacy)* verified, ignored, never written           |
//!
//! Section 7 of an older file may also hold decisions of pairs that had
//! left the candidate set by the time it was written; `open` drops them
//! after checking that the candidates themselves are covered.
//!
//! Section 8 couples a snapshot to the write-ahead ingest journal
//! ([`crate::wal`]): it records the journal sequence number the snapshot's
//! state already covers, so boot-time replay can skip journal records that
//! are baked into the snapshot (the crash window between snapshot rename
//! and journal compaction would otherwise double-apply them). The section
//! is *trailing and optional* — files written before it existed (including
//! the committed golden v1 fixture) read as "journal seq 0" and keep
//! loading, which is why the format version did not change.
//!
//! Section 5 is legacy: while the engine memoized kernel results, the
//! writer dumped the per-attribute similarity and below-cut verdict tables
//! here. Kernel values are now computed where they are needed, so the
//! section is written with zero attributes (which older readers import as
//! a no-op); `open` still decodes the entries of an older file, refuses a
//! symbol pair outside the restored pool as
//! [`SnapshotError::InvalidSymbol`], and drops them.
//!
//! Section 9 is legacy: while sessions memoized entity partitions, the
//! writer appended them here. An entity partition is a deterministic
//! function of the decisions in section 7, so nothing writes the section
//! any more; `open` still checks its frame (tag, length, checksum, no
//! bytes after it) and skips the payload, which is why such files keep
//! loading under format version 1.
//!
//! The relation is stored *post-preparation*, so opening never re-runs the
//! preparation plan; pools are stored in dense symbol order, so re-interning
//! on open reproduces identical symbols. Everything row-indexed but cheap (interned tuple
//! mirrors, `PreparedValue` sidecars, candidate pairs, conditioned
//! alternative weights) is **rebuilt** from the restored pools on open —
//! pure warm-pool work with zero key renders, verified by the round-trip
//! property tests.
//!
//! # Atomic-write protocol
//!
//! [`atomic_write`] never exposes a torn file:
//!
//! 1. serialize to `<path>.tmp` (truncating any stale temp file),
//! 2. `fsync` the temp file,
//! 3. `rename` it over `<path>` (atomic on POSIX),
//! 4. `fsync` the containing directory so the rename itself is durable.
//!
//! A crash before step 3 leaves the previous snapshot untouched; a crash
//! after leaves the new one fully in place. There is no intermediate state
//! in which `<path>` holds a partial file — property-tested by the
//! kill-point suite in `tests/snapshot.rs`, which stops the protocol at
//! every step and asserts the last good snapshot still loads.
//!
//! [`XRelation`]: probdedup_model::relation::XRelation
//! [`ValuePool`]: probdedup_model::intern::ValuePool
//! [`KeyTable`]: probdedup_reduction::KeyTable

use std::fs;
use std::io::Write;
use std::path::Path;

use probdedup_model::snapshot::SnapshotError;

/// Section tag: configuration fingerprint.
pub const TAG_CONFIG: u32 = 1;
/// Section tag: prepared resident relation.
pub const TAG_RELATION: u32 = 2;
/// Section tag: source row offsets.
pub const TAG_OFFSETS: u32 = 3;
/// Section tag: matching value pool.
pub const TAG_MATCH_POOL: u32 = 4;
/// Section tag (legacy): the retired per-attribute similarity/verdict
/// memo — written empty, older entries symbol-checked and dropped.
pub const TAG_CACHES: u32 = 5;
/// Section tag: warm reduction key-table pools.
pub const TAG_REDUCTION: u32 = 6;
/// Section tag: classified pairs and tier counters.
pub const TAG_DECIDED: u32 = 7;
/// Section tag (optional, trailing): highest applied write-ahead-journal
/// sequence number (see [`crate::wal`]). Absent in pre-WAL snapshots.
pub const TAG_JOURNAL: u32 = 8;
/// Section tag (legacy, optional, trailing): the entity partitions older
/// writers memoized per clustering strategy. `open` verifies the frame
/// and ignores the payload; nothing writes it.
pub const TAG_ENTITIES: u32 = 9;

/// The temp-file path the atomic protocol stages into: `<path>.tmp` in the
/// same directory (same filesystem, so the rename is atomic).
pub fn staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Durably replace `path` with `bytes` via write-temp → fsync → rename →
/// fsync-dir (see the module docs). On any error the previous contents of
/// `path`, if any, are left untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = staging_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable: fsync the containing directory.
    // Directories cannot be fsynced on all platforms; failure to open one
    // for syncing is not a correctness problem (the data is already
    // renamed), so only propagate errors from an actual sync attempt.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

/// Read a snapshot file fully into memory (decoding is done by the
/// model-layer [`SnapshotReader`](probdedup_model::snapshot::SnapshotReader)
/// over the returned bytes).
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    Ok(fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("probdedup-core-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = temp_dir("atomic");
        let path = dir.join("state.snap");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!staging_path(&path).exists(), "temp file left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_failure_preserves_previous_file() {
        let dir = temp_dir("fail");
        let path = dir.join("state.snap");
        atomic_write(&path, b"good").unwrap();
        // Writing into a missing directory fails before any rename.
        let bad = dir.join("missing-subdir").join("state.snap");
        assert!(atomic_write(&bad, b"broken").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"good");
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Write-ahead ingest journal: crash durability for the window *between*
//! snapshots.
//!
//! [`crate::snapshot`] makes a [`DedupSession`] durable at the moments an
//! operator (or the serving daemon's autosaver) chooses to save; every
//! batch accepted since the last save is lost on a crash. This module
//! closes that window with the classic write-ahead discipline: each
//! accepted batch is appended to an on-disk journal and fsynced **before**
//! it mutates the session, so after a `kill -9` the pre-crash state is
//! exactly `snapshot + journal tail`.
//!
//! # File format (journal version 1)
//!
//! ```text
//! header   "PXDWAL\0\0" · version u32 · base_seq u64          (20 bytes)
//! record   seq u64 · kind u8 · len u64 · payload · cksum u64
//! ```
//!
//! All integers little-endian; `cksum` is [`fnv1a`] over the record's
//! header-and-payload bytes (everything before the checksum itself). The
//! payload is the posted batch — the *raw* [`XRelation`] as received,
//! encoded with the model-layer codec. `kind` distinguishes an appended
//! batch (`ingest`) from a corpus replacement (`run`): both mutate the
//! session, so both journal.
//!
//! Replay decodes the whole tail first, so a tail it cannot replay is
//! refused before any record of it is applied. A corpus replacement
//! replays alone through [`DedupSession::run`]. Each maximal run of ingest
//! records replays as **one** ingest: every batch is validated and
//! prepared on its own, then the run gets one grow of the reduction
//! state, one classification of the candidate pairs that survive the
//! whole run (not those a later batch of it pushes out again) and one
//! publish, which keeps one source per record. That is the session's
//! split-invariance contract, so the recovered state equals the pre-crash
//! one — up to the cumulative tier counters, which count the pairs
//! classified (ARCHITECTURE.md, "The engine").
//!
//! Sequence numbers are strictly contiguous (`seq = previous + 1`), which
//! is what makes every crash window decidable on reboot:
//!
//! * `base_seq` is the sequence number the journal was last compacted at —
//!   records with `seq <= base_seq` are stale leftovers of an interrupted
//!   compaction and are skipped;
//! * the snapshot stores the highest sequence it covers (section 8, see
//!   [`crate::snapshot`]) — records at or below it are already baked in
//!   and are skipped;
//! * everything above both is replayed, in order.
//!
//! # Compaction protocol
//!
//! After a snapshot covering sequence `S` is durably on disk
//! ([`atomic_write`](crate::snapshot::atomic_write) has returned), the
//! journal is reset in two fsynced steps: write `base_seq = S` in place,
//! then truncate to the bare header. A crash between the steps leaves
//! records `<= S` in the file under `base_seq = S` — exactly the stale
//! state the skip rule ignores. A crash *before* the base write leaves the
//! old journal next to the new snapshot — the snapshot's own sequence
//! floor skips the replay. No interleaving double-applies or loses a
//! record; `tests/wal.rs` enumerates every crash point and asserts the
//! recovered partition byte-identical.
//!
//! # Torn and corrupt tails
//!
//! A crash mid-append can leave a torn final record. Recovery parses
//! records until the first frame that is incomplete, fails its checksum,
//! or breaks sequence contiguity, **truncates** the file back to the last
//! good record, and replays the rest — it never panics on journal bytes
//! and never surfaces a half-written batch (fuzzed in `tests/wal.rs`).
//! A journal whose `base_seq` exceeds what the session state covers is
//! refused loudly instead: that means the snapshot the journal was
//! compacted against has been lost, and silently replaying would resurrect
//! a corpus with holes.
//!
//! [`DedupSession`]: crate::session::DedupSession
//! [`XRelation`]: probdedup_model::relation::XRelation
//! [`fnv1a`]: probdedup_model::snapshot::fnv1a

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use probdedup_model::relation::XRelation;
use probdedup_model::snapshot::{
    fnv1a, read_xrelation, write_xrelation, SectionReader, SectionWriter, SnapshotError,
};

use crate::pipeline::DedupResult;
use crate::session::{DedupSession, IncrementalResult, StagedIngest};

/// Journal file magic (8 bytes).
pub const WAL_MAGIC: [u8; 8] = *b"PXDWAL\0\0";
/// Journal format version.
pub const WAL_VERSION: u32 = 1;
/// Fixed header length: magic + version + `base_seq`.
pub const WAL_HEADER_LEN: u64 = 20;

/// Record kind: one batch appended via [`DedupSession::ingest`].
const REC_INGEST: u8 = 1;
/// Record kind: corpus replaced via [`DedupSession::run`].
const REC_RUN: u8 = 2;
/// Per-record framing overhead: seq + kind + len before the payload,
/// checksum after it.
const REC_PREFIX: usize = 8 + 1 + 8;
const REC_OVERHEAD: usize = REC_PREFIX + 8;

/// What [`SessionJournal::open_and_replay`] did to reconcile the journal
/// with the session it was opened over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Records applied to the session (committed after the snapshot).
    pub replayed: u64,
    /// Stale records skipped (already covered by the snapshot or by an
    /// interrupted compaction's `base_seq`).
    pub skipped: u64,
    /// Torn/corrupt tail bytes truncated off the file.
    pub truncated_bytes: u64,
}

/// The write-ahead journal of one session: an append-only file coupling
/// every accepted mutation to disk *before* it reaches memory.
///
/// The API enforces the discipline rather than documenting it:
/// [`ingest`](Self::ingest) and [`run`](Self::run) take the session and
/// the batch together, validate, append + fsync, and only then apply —
/// there is no public "append without applying" or "apply without
/// appending" path.
#[derive(Debug)]
pub struct SessionJournal {
    path: PathBuf,
    file: File,
    /// Sequence the journal was last compacted at (record floor).
    base_seq: u64,
    /// Highest sequence this journal knows of — the last physical record,
    /// or the coverage floor when the file is bare. The next append is
    /// `tail_seq + 1`.
    tail_seq: u64,
    /// File length through the last committed record: the next append
    /// writes here, and a failed one is truncated back to it.
    committed_len: u64,
}

impl SessionJournal {
    /// Open (creating if absent) the journal at `path` and replay its
    /// committed tail onto `session`, reconciling every crash window: a
    /// torn trailing record is truncated, records the session's snapshot
    /// already covers are skipped, and the rest are decoded, then applied
    /// in order — each run of ingest records as one ingest (see the
    /// module docs). A tail that does not decode is refused before any
    /// record of it is applied.
    ///
    /// `session` should be freshly restored from its snapshot (or fresh
    /// from the pipeline when no snapshot exists) — afterwards it is
    /// exactly the pre-crash state, and the returned journal is positioned
    /// to accept the next mutation.
    pub fn open_and_replay(
        path: impl AsRef<Path>,
        session: &mut DedupSession,
    ) -> Result<(Self, WalReplay), SnapshotError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let base_seq = match parse_header(&bytes)? {
            Some(base) => base,
            None => {
                // Empty or torn header (a crash during creation): start
                // the journal at the session's current coverage.
                let base = session.journal_seq();
                write_fresh_header(&mut file, &path, base)?;
                bytes.clear();
                bytes.extend_from_slice(&header_bytes(base));
                base
            }
        };
        if base_seq > session.journal_seq() {
            // The journal was compacted against a snapshot covering
            // `base_seq`, but the session state covers less: the snapshot
            // is missing or stale, and the compacted records are gone.
            return Err(SnapshotError::Malformed {
                context: "journal compacted beyond the session snapshot (snapshot missing?)",
            });
        }

        let (records, good_end) = parse_records(&bytes);
        let truncated_bytes = (bytes.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }

        // Decode everything above the coverage floor before applying any
        // of it: a tail that cannot be replayed is refused with the
        // session as its snapshot left it.
        let floor = base_seq.max(session.journal_seq());
        let mut replay = WalReplay {
            truncated_bytes,
            ..WalReplay::default()
        };
        let mut tail = Vec::new();
        let mut tail_seq = floor;
        for rec in &records {
            tail_seq = tail_seq.max(rec.seq);
            if rec.seq <= floor {
                replay.skipped += 1;
                continue;
            }
            if rec.seq != floor + 1 + tail.len() as u64 {
                return Err(SnapshotError::Malformed {
                    context: "journal gap: committed records missing below the tail",
                });
            }
            tail.push(decode_record(rec.kind, &bytes[rec.payload.clone()])?);
        }

        // Apply the tail in order: each corpus replacement alone, each
        // maximal run of ingests as one staged ingest.
        let mut seq = floor;
        for run in tail.chunk_by(|a, b| a.0 == REC_INGEST && b.0 == REC_INGEST) {
            seq += run.len() as u64;
            match run {
                [(REC_RUN, corpus)] => {
                    session.run(&[corpus])?;
                }
                _ => session.replay_ingests(run.iter().map(|(_, batch)| batch))?,
            }
            session.set_journal_seq(seq);
        }
        replay.replayed = tail.len() as u64;

        Ok((
            Self {
                path,
                file,
                base_seq,
                tail_seq,
                committed_len: good_end as u64,
            },
            replay,
        ))
    }

    /// Journal-then-apply one ingest batch: validate against the session,
    /// append the batch durably (fsync), then apply it. On an append
    /// error the session is untouched — the caller can refuse the batch
    /// knowing memory and disk still agree.
    pub fn ingest(
        &mut self,
        session: &mut DedupSession,
        batch: &XRelation,
    ) -> Result<IncrementalResult, SnapshotError> {
        let mut staged = session.stage(batch)?;
        self.append_staged(&mut staged, batch)?;
        Ok(session.apply(staged))
    }

    /// Append `batch`, staged by the session it is bound for, durably
    /// (fsync); the staged batch carries the record's sequence number to
    /// publish. The one append path of an ingest — [`ingest`](Self::ingest)
    /// and [`SharedSession`](crate::shared::SharedSession) both run it
    /// between staging and applying.
    pub(crate) fn append_staged(
        &mut self,
        staged: &mut StagedIngest,
        batch: &XRelation,
    ) -> Result<(), SnapshotError> {
        staged.journaled_as(self.append(REC_INGEST, batch)?);
        Ok(())
    }

    /// Journal-then-apply a corpus replacement ([`DedupSession::run`] over
    /// one source). Replacements journal like ingests — a recovered
    /// session must converge to the same resident corpus.
    pub fn run(
        &mut self,
        session: &mut DedupSession,
        corpus: &XRelation,
    ) -> Result<DedupResult, SnapshotError> {
        let seq = self.append(REC_RUN, corpus)?;
        let out = session.run(&[corpus])?;
        session.set_journal_seq(seq);
        Ok(out)
    }

    /// Reset the journal after a snapshot covering `applied_seq` is
    /// durably on disk: record the new floor in the header (fsync), then
    /// truncate the now-redundant records (fsync). Crash-safe at every
    /// step — see the module docs for the interleaving analysis.
    pub fn compact(&mut self, applied_seq: u64) -> Result<(), SnapshotError> {
        if applied_seq < self.tail_seq {
            // Compacting below the tail would truncate committed records
            // the snapshot does not cover — a caller bug, refused.
            return Err(SnapshotError::Malformed {
                context: "journal compaction below the committed tail",
            });
        }
        self.file.seek(SeekFrom::Start(12))?;
        self.file.write_all(&applied_seq.to_le_bytes())?;
        self.file.sync_data()?;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.sync_data()?;
        self.base_seq = applied_seq;
        self.tail_seq = applied_seq;
        self.committed_len = WAL_HEADER_LEN;
        Ok(())
    }

    /// The sequence floor recorded at the last compaction.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frame, append and fsync one record; returns its sequence number.
    ///
    /// The record goes at the committed length, not at the end of the
    /// file, and a failed append truncates back to it: a short write must
    /// not leave torn bytes ahead of the next record (replay would stop at
    /// them and drop that record), and a frame whose fsync failed must not
    /// stay behind under the sequence number the next record reuses
    /// (replay would apply the refused batch in its place).
    fn append(&mut self, kind: u8, batch: &XRelation) -> Result<u64, SnapshotError> {
        let seq = self.tail_seq + 1;
        let mut w = SectionWriter::new();
        write_xrelation(&mut w, batch);
        let payload = w.into_bytes();
        let mut frame = Vec::with_capacity(payload.len() + REC_OVERHEAD);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
        let cksum = fnv1a(&frame);
        frame.extend_from_slice(&cksum.to_le_bytes());
        let written = self
            .file
            .seek(SeekFrom::Start(self.committed_len))
            .and_then(|_| self.file.write_all(&frame))
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            // Best effort: should the truncation fail too, the next append
            // still overwrites from the committed length.
            let _ = self.file.set_len(self.committed_len);
            return Err(e.into());
        }
        self.committed_len += frame.len() as u64;
        self.tail_seq = seq;
        Ok(seq)
    }
}

/// One parsed record frame (payload as a range into the file bytes).
struct RawRecord {
    seq: u64,
    kind: u8,
    payload: std::ops::Range<usize>,
}

/// Validate the fixed header. `Ok(Some(base_seq))` for a well-formed
/// header, `Ok(None)` when the file is empty or holds a torn prefix of our
/// own header (recoverable by rewriting it), an error for foreign or
/// future-format files (never clobbered).
fn parse_header(bytes: &[u8]) -> Result<Option<u64>, SnapshotError> {
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        let magic_prefix = WAL_MAGIC.len().min(bytes.len());
        if bytes[..magic_prefix] != WAL_MAGIC[..magic_prefix] {
            return Err(SnapshotError::BadMagic);
        }
        return Ok(None);
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte version"));
    if version != WAL_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    Ok(Some(u64::from_le_bytes(
        bytes[12..20].try_into().expect("8-byte base seq"),
    )))
}

/// Parse record frames after the header, stopping (without error) at the
/// first torn, checksum-failing, or sequence-breaking frame. Returns the
/// good records and the byte offset the file should be truncated to.
fn parse_records(bytes: &[u8]) -> (Vec<RawRecord>, usize) {
    let mut records: Vec<RawRecord> = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < bytes.len() {
        let rem = &bytes[pos..];
        if rem.len() < REC_OVERHEAD {
            break;
        }
        let seq = u64::from_le_bytes(rem[..8].try_into().expect("8-byte seq"));
        let kind = rem[8];
        let len = u64::from_le_bytes(rem[9..17].try_into().expect("8-byte len"));
        let Ok(len) = usize::try_from(len) else {
            break;
        };
        let Some(frame_len) = len.checked_add(REC_OVERHEAD) else {
            break;
        };
        if rem.len() < frame_len {
            break;
        }
        let stored = u64::from_le_bytes(
            rem[REC_PREFIX + len..frame_len]
                .try_into()
                .expect("8-byte checksum"),
        );
        if fnv1a(&rem[..REC_PREFIX + len]) != stored {
            break;
        }
        if let Some(prev) = records.last() {
            if seq != prev.seq + 1 {
                break;
            }
        }
        records.push(RawRecord {
            seq,
            kind,
            payload: pos + REC_PREFIX..pos + REC_PREFIX + len,
        });
        pos += frame_len;
    }
    let good_end = last_good_end(&records, WAL_HEADER_LEN as usize);
    (records, good_end)
}

/// Byte offset just past the last good record (the truncation target).
fn last_good_end(records: &[RawRecord], header_end: usize) -> usize {
    records
        .last()
        .map_or(header_end, |r| r.payload.end + 8 /* checksum */)
}

/// Decode one committed record into its kind and batch.
fn decode_record(kind: u8, payload: &[u8]) -> Result<(u8, XRelation), SnapshotError> {
    if kind != REC_INGEST && kind != REC_RUN {
        // A checksum-valid frame with an unknown kind was written by
        // something newer than this reader — refuse, don't guess.
        return Err(SnapshotError::Malformed {
            context: "unknown journal record kind",
        });
    }
    let mut r = SectionReader::new(payload, "journal record payload");
    let batch = read_xrelation(&mut r)?;
    r.finish()?;
    Ok((kind, batch))
}

/// Write a pristine header (creation, or recovery from a torn one).
fn write_fresh_header(file: &mut File, path: &Path, base_seq: u64) -> Result<(), SnapshotError> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header_bytes(base_seq))?;
    file.sync_all()?;
    // The file's existence must be durable too: fsync the directory, best
    // effort on platforms where directories cannot be opened for sync.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

/// The 20 header bytes for `base_seq`.
fn header_bytes(base_seq: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base_seq.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DedupPipeline, ReductionStrategy};
    use probdedup_decision::combine::WeightedSum;
    use probdedup_decision::derive_sim::ExpectedSimilarity;
    use probdedup_decision::threshold::Thresholds;
    use probdedup_decision::xmodel::SimilarityBasedModel;
    use probdedup_matching::vector::AttributeComparators;
    use probdedup_model::schema::Schema;
    use probdedup_model::xtuple::XTuple;
    use probdedup_textsim::NormalizedHamming;
    use std::fs;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn pipeline() -> DedupPipeline {
        DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(Arc::new(SimilarityBasedModel::new(
                Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
                Arc::new(ExpectedSimilarity),
                Thresholds::new(0.6, 0.8).unwrap(),
            )))
            .reduction(ReductionStrategy::Full)
            .build()
    }

    fn rel(rows: &[(&str, &str)]) -> XRelation {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        for (n, j) in rows {
            r.push(XTuple::builder(&s).alt(0.9, [*n, *j]).build().unwrap());
        }
        r
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("probdedup-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_replays_committed_batches_onto_a_fresh_session() {
        let dir = temp_dir("replay");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, replay) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        assert_eq!(replay, WalReplay::default());
        journal
            .ingest(&mut live, &rel(&[("John", "pilot"), ("Jon", "pilot")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();
        assert_eq!(journal.tail_seq, 2);
        assert_eq!(live.journal_seq(), 2);

        // "kill -9": recover a fresh session purely from the journal.
        let mut recovered = p.session();
        let (journal2, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
        assert_eq!(replay.replayed, 2);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(journal2.tail_seq, 2);
        assert_eq!(recovered.rows(), live.rows());
        assert_eq!(recovered.result().decisions, live.result().decisions);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_committed_record() {
        let dir = temp_dir("torn");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        let committed_len = fs::metadata(&wal).unwrap().len();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();
        let full_len = fs::metadata(&wal).unwrap().len();
        drop(journal);

        // Tear the second record at every byte boundary.
        for cut in committed_len + 1..full_len {
            let full = fs::read(&wal).unwrap();
            fs::write(&wal, &full[..cut as usize]).unwrap();
            let mut recovered = p.session();
            let (j, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
            assert_eq!(replay.replayed, 1, "cut at {cut}");
            assert_eq!(replay.truncated_bytes, cut - committed_len, "cut at {cut}");
            assert_eq!(recovered.rows(), 1, "cut at {cut}");
            assert_eq!(j.tail_seq, 1);
            assert_eq!(
                fs::metadata(&wal).unwrap().len(),
                committed_len,
                "file not truncated at cut {cut}"
            );
            // Restore the full file for the next cut.
            drop(j);
            fs::write(&wal, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed append leaves bytes behind the committed record: a torn
    /// prefix of its frame (a short write), or the whole frame (its fsync
    /// failed), under the sequence number the next record takes. The next
    /// acknowledged record must replay, and the refused batch must not.
    #[test]
    fn an_append_after_a_failed_one_is_replayed() {
        let dir = temp_dir("failed-append");
        let p = pipeline();
        let (first, refused, second) = (
            rel(&[("John", "pilot")]),
            rel(&[("Refused", "batch"), ("Never", "applied")]),
            rel(&[("Tim", "smith")]),
        );
        // The bytes a failed append of `refused` after `first` leaves.
        let failed_frame = {
            let wal = dir.join("frame.wal");
            let mut session = p.session();
            let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut session).unwrap();
            journal.ingest(&mut session, &first).unwrap();
            let committed = fs::metadata(&wal).unwrap().len() as usize;
            journal.ingest(&mut session, &refused).unwrap();
            fs::read(&wal).unwrap()[committed..].to_vec()
        };
        for leftover in [failed_frame.len() / 2, failed_frame.len()] {
            let wal = dir.join(format!("live-{leftover}.wal"));
            let mut live = p.session();
            let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
            journal.ingest(&mut live, &first).unwrap();
            let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
            file.write_all(&failed_frame[..leftover]).unwrap();
            journal.ingest(&mut live, &second).unwrap();
            drop(journal);

            let mut recovered = p.session();
            let (_, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
            assert_eq!(replay.replayed, 2, "{leftover} leftover bytes");
            assert_eq!(recovered.rows(), 2, "{leftover} leftover bytes");
            assert_eq!(recovered.result().decisions, live.result().decisions);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_resets_the_file_and_skips_stale_records() {
        let dir = temp_dir("compact");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();

        // Snapshot saved durably → compact.
        let snap = live.to_snapshot_bytes();
        journal.compact(live.journal_seq()).unwrap();
        assert_eq!(fs::metadata(&wal).unwrap().len(), WAL_HEADER_LEN);
        assert_eq!(journal.base_seq(), 2);

        // Appends continue from the compacted floor (no sequence reuse).
        journal
            .ingest(&mut live, &rel(&[("Ann", "nurse")]))
            .unwrap();
        assert_eq!(journal.tail_seq, 3);
        drop(journal);

        // Recover from snapshot + journal tail: only record 3 replays.
        let mut recovered = DedupSession::from_snapshot_bytes(&snap, &p).unwrap();
        assert_eq!(recovered.journal_seq(), 2);
        let (_, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
        assert_eq!(replay.replayed, 1);
        assert_eq!(recovered.rows(), live.rows());
        assert_eq!(recovered.result().decisions, live.result().decisions);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_skips_stale_records_on_replay() {
        let dir = temp_dir("interrupt");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();
        let snap = live.to_snapshot_bytes();
        drop(journal);

        // Simulate a crash between the compaction's base write and its
        // truncation: base_seq = 2, records 1..=2 still in the file.
        let mut bytes = fs::read(&wal).unwrap();
        bytes[12..20].copy_from_slice(&2u64.to_le_bytes());
        fs::write(&wal, &bytes).unwrap();

        let mut recovered = DedupSession::from_snapshot_bytes(&snap, &p).unwrap();
        let (j, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
        assert_eq!(replay.replayed, 0);
        assert_eq!(replay.skipped, 2);
        assert_eq!(j.tail_seq, 2);
        assert_eq!(recovered.result().decisions, live.result().decisions);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_without_its_snapshot_is_refused() {
        let dir = temp_dir("orphan");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        journal.compact(live.journal_seq()).unwrap();
        drop(journal);

        // The snapshot covering seq 1 is "lost": a fresh session presents
        // journal_seq 0 against base_seq 1.
        let mut fresh = p.session();
        let err = SessionJournal::open_and_replay(&wal, &mut fresh).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_are_not_clobbered() {
        let dir = temp_dir("foreign");
        let wal = dir.join("s.wal");
        fs::write(&wal, b"definitely not a journal").unwrap();
        let mut session = pipeline().session();
        let err = SessionJournal::open_and_replay(&wal, &mut session).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "{err}");
        assert_eq!(fs::read(&wal).unwrap(), b"definitely not a journal");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A corpus replacement ends a run of ingests: the two ingests before
    /// it replay as one run it then replaces, the two after it as another
    /// on top of it, each batch still its own source.
    #[test]
    fn run_records_replay_corpus_replacement() {
        let dir = temp_dir("run");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Jon", "pilot"), ("Joan", "pilot")]))
            .unwrap();
        // Replace the corpus outright, then ingest on top.
        journal
            .run(&mut live, &rel(&[("Ann", "nurse"), ("Anne", "nurse")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tom", "smith"), ("Tim", "smit")]))
            .unwrap();

        let mut recovered = p.session();
        let (_, replay) = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap();
        assert_eq!(replay.replayed, 5);
        assert_eq!(recovered.journal_seq(), 5);
        assert_eq!(recovered.rows(), 5);
        assert_eq!(recovered.source_count(), 3);
        let (got, want) = (recovered.result(), live.result());
        assert_eq!(got.source_offsets, vec![0, 2, 3]);
        assert_eq!(got.source_offsets, want.source_offsets);
        assert_eq!(got.decisions, want.decisions);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A tail that cannot be replayed is refused before any of it is
    /// applied: here its third record is checksum-valid but of a kind
    /// this reader does not know, and the session stays exactly as its
    /// snapshot left it.
    #[test]
    fn an_unreplayable_tail_is_refused_before_any_record_applies() {
        let dir = temp_dir("unknown-kind");
        let wal = dir.join("s.wal");
        let p = pipeline();

        let mut live = p.session();
        let (mut journal, _) = SessionJournal::open_and_replay(&wal, &mut live).unwrap();
        journal
            .ingest(&mut live, &rel(&[("John", "pilot")]))
            .unwrap();
        let snap = live.to_snapshot_bytes();
        journal
            .ingest(&mut live, &rel(&[("Jon", "pilot")]))
            .unwrap();
        journal
            .ingest(&mut live, &rel(&[("Tim", "smith")]))
            .unwrap();
        let third = fs::metadata(&wal).unwrap().len() as usize;
        journal
            .ingest(&mut live, &rel(&[("Ann", "nurse")]))
            .unwrap();
        drop(journal);

        // Re-stamp the last record with an unknown kind, re-checksummed.
        let mut bytes = fs::read(&wal).unwrap();
        bytes[third + 8] = 0xEE;
        let end = bytes.len() - 8;
        let cksum = fnv1a(&bytes[third..end]);
        bytes[end..].copy_from_slice(&cksum.to_le_bytes());
        fs::write(&wal, &bytes).unwrap();

        let mut recovered = DedupSession::from_snapshot_bytes(&snap, &p).unwrap();
        let before = recovered.result();
        let err = SessionJournal::open_and_replay(&wal, &mut recovered).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        assert_eq!(recovered.rows(), 1);
        assert_eq!(recovered.journal_seq(), 1);
        let after = recovered.result();
        assert_eq!(after.relation, before.relation);
        assert_eq!(after.source_offsets, before.source_offsets);
        assert_eq!(after.decisions, before.decisions);
        assert_eq!(after.clusters, before.clusters);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! One session shared by concurrent readers and one writer at a time:
//! the lock protocol a daemon runs an ingest under, so that reads never
//! wait out the classification of a batch.
//!
//! A [`SharedSession`] holds two locks, always taken in this order:
//!
//! 1. **writer** — a mutex over the session's write-ahead journal (if
//!    any). Every write (`ingest`, `run`) and every save holds it from
//!    start to end, so one batch is in flight at a time, and a save never
//!    sees a journal record its session has not published.
//! 2. **session** — the `RwLock<DedupSession>` readers share.
//!
//! An ingest runs the phases of [`DedupSession::ingest`] with the session
//! lock released between them. Only two short steps take it for writing:
//!
//! ```text
//!  writer ─┬─ read:  stage (validate, prepare a copy of the batch)
//!          │         journal append + fsync     (no session lock)
//!          ├─ write: grow  (reduction delta, intern, sidecars, weights)
//!          ├─ read:  classify what arrived     (Eq. 5 — most of the cost)
//!          └─ write: publish (rows, memo, departed, tiers, journal seq)
//! ```
//!
//! Readers in between are answered from the *published prefix*: the
//! relation, the decision memo, the source offsets, the tier counters and
//! the journal sequence change at publish only, and the grown matching and
//! reduction state is append-only and never reached from a row below
//! [`DedupSession::rows`] (`current_pairs` ignores rows at or past the
//! published count). So every read sees the session from before the batch
//! or from after it, never one in between. The value-keyed counters
//! (interned values, key renders) may already include a
//! batch in flight. The strategies that regenerate their candidates over
//! the whole corpus (multi-pass over worlds, cluster blocking) classify at
//! publish, as [`DedupSession::ingest`] always did.
//!
//! A panic in any phase poisons the writer mutex (it is held throughout),
//! so [`read`](SharedSession::read) and every later write report the
//! session poisoned: its in-memory state is suspect, while its durable
//! `snapshot + journal` state is intact, because the journal append
//! precedes every mutation.

use std::sync::{LockResult, Mutex, PoisonError, RwLock, RwLockReadGuard};

use probdedup_model::error::ModelError;
use probdedup_model::relation::XRelation;
use probdedup_model::snapshot::SnapshotError;

use crate::pipeline::DedupResult;
use crate::session::{DedupSession, IncrementalResult};
use crate::wal::SessionJournal;

/// Why a [`SharedSession`] write was not applied.
#[derive(Debug)]
pub enum WriteError {
    /// A panic in an earlier write or save poisoned the session.
    Poisoned,
    /// The batch was refused with the session untouched: it does not fit
    /// the session ([`SnapshotError::Model`]) or its journal append failed.
    Refused(SnapshotError),
}

impl From<SnapshotError> for WriteError {
    fn from(e: SnapshotError) -> Self {
        Self::Refused(e)
    }
}

impl<T> From<PoisonError<T>> for WriteError {
    fn from(_: PoisonError<T>) -> Self {
        Self::Poisoned
    }
}

impl From<ModelError> for WriteError {
    fn from(e: ModelError) -> Self {
        Self::Refused(SnapshotError::Model(e))
    }
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Poisoned => f.write_str("session poisoned by an earlier panic"),
            Self::Refused(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WriteError {}

/// A [`DedupSession`] and its optional [`SessionJournal`] behind the
/// writer → session lock order (see the module docs).
pub struct SharedSession {
    writer: Mutex<Option<SessionJournal>>,
    session: RwLock<DedupSession>,
    journaled: bool,
}

impl SharedSession {
    /// Share `session`, journaling its writes to `journal` when given.
    pub fn new(session: DedupSession, journal: Option<SessionJournal>) -> Self {
        Self {
            journaled: journal.is_some(),
            writer: Mutex::new(journal),
            session: RwLock::new(session),
        }
    }

    /// Whether writes are journaled.
    pub fn is_journaled(&self) -> bool {
        self.journaled
    }

    /// Read access to the published session. Poisoned when a panic
    /// interrupted a write or a save; the guard inside the error still
    /// reads (for counters), but the state is suspect.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, DedupSession>> {
        let guard = self.session.read();
        if self.writer.is_poisoned() {
            return Err(PoisonError::new(
                guard.unwrap_or_else(PoisonError::into_inner),
            ));
        }
        guard
    }

    /// Ingest one batch, with the session lock released while the batch
    /// is journaled and classified (see the module docs). The result and
    /// the published state equal those of [`SessionJournal::ingest`] /
    /// [`DedupSession::ingest`].
    pub fn ingest(&self, batch: &XRelation) -> Result<IncrementalResult, WriteError> {
        let mut writer = self.writer.lock()?;
        let mut staged = self.session.read()?.stage(batch)?;
        if let Some(journal) = writer.as_mut() {
            journal.append_staged(&mut staged, batch)?;
        }
        self.session.write()?.grow(&mut staged);
        self.session.read()?.classify_arrived(&mut staged);
        Ok(self.session.write()?.publish(staged))
    }

    /// Replace the corpus ([`SessionJournal::run`] / [`DedupSession::run`]
    /// over `corpus`) under the write lock throughout.
    pub fn run(&self, corpus: &XRelation) -> Result<DedupResult, WriteError> {
        let mut writer = self.writer.lock()?;
        let mut session = self.session.write()?;
        Ok(match writer.as_mut() {
            Some(journal) => journal.run(&mut session, corpus)?,
            None => session.run(&[corpus])?,
        })
    }

    /// Run `f` over the session with no write in flight and the journal
    /// at hand — what a save needs: the session covers every record the
    /// journal holds, so compacting at its sequence truncates nothing it
    /// misses. Readers keep being served meanwhile. `None` when poisoned
    /// (and a panic in `f` poisons the session too).
    pub fn settled<R>(
        &self,
        f: impl FnOnce(&DedupSession, Option<&mut SessionJournal>) -> R,
    ) -> Option<R> {
        let mut writer = self.writer.lock().ok()?;
        let session = self.session.read().ok()?;
        Some(f(&session, writer.as_mut()))
    }
}

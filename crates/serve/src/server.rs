//! The daemon: named warm sessions behind a thread-per-connection
//! HTTP/1.1 accept loop, with snapshot autoload/autosave and request
//! accounting. See the crate docs for the concurrency model and the
//! snapshot lifecycle; the endpoint table lives in `ARCHITECTURE.md`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use probdedup_core::pipeline::{DedupPipeline, PairDecision, Partition};
use probdedup_core::session::DedupSession;
use probdedup_core::shared::{SharedSession, WriteError};
use probdedup_core::wal::SessionJournal;
use probdedup_decision::threshold::MatchClass;
use probdedup_entity::{ClusterStrategy, ResolveEntities};
use probdedup_model::format::parse_xrelation;
use probdedup_model::snapshot::SnapshotError;

use crate::http::{json_string, read_request, write_response, HttpError, Request, Response};

/// How a server failed to start or persist.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind(String, std::io::Error),
    /// The snapshot directory could not be created or scanned.
    SnapshotDir(PathBuf, std::io::Error),
    /// A snapshot in the autoload directory is corrupt or was written by
    /// a different pipeline configuration — boot fails loudly rather
    /// than silently dropping persisted state.
    Snapshot(PathBuf, SnapshotError),
    /// The write-ahead-journal directory could not be created or is not
    /// writable (probed at boot, before any ingest can be accepted).
    WalDir(PathBuf, std::io::Error),
    /// A journal failed to open or replay at boot — recovery refuses to
    /// guess rather than serve a corpus with holes.
    Wal(PathBuf, SnapshotError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind(addr, e) => write!(f, "cannot bind {addr}: {e}"),
            Self::SnapshotDir(p, e) => write!(f, "snapshot dir {}: {e}", p.display()),
            Self::Snapshot(p, e) => write!(f, "snapshot {}: {e}", p.display()),
            Self::WalDir(p, e) => write!(f, "wal dir {}: {e}", p.display()),
            Self::Wal(p, e) => write!(f, "journal {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration of one daemon instance.
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7878`; port 0 for an ephemeral port).
    pub addr: String,
    /// The pipeline every session is built from (also validates the
    /// arity of posted relations).
    pub pipeline: DedupPipeline,
    /// Directory for `NAME.snap` files: autoloaded on boot, autosaved on
    /// shutdown/interval and by `POST .../snapshot`. `None` disables
    /// persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Autosave every this often (requires `snapshot_dir`).
    pub autosave_interval: Option<Duration>,
    /// Directory for `NAME.wal` write-ahead journals: every accepted
    /// ingest/dedup is fsynced here *before* it mutates the session, and
    /// boot replays `snapshot + journal tail` so a `kill -9` loses
    /// nothing. `None` disables journaling (PR 7 behavior).
    pub wal_dir: Option<PathBuf>,
    /// Bound on concurrently executing session requests; past it the
    /// daemon sheds with `503 Retry-After` instead of queueing
    /// unboundedly. `None` leaves admission unbounded.
    pub max_inflight: Option<u64>,
    /// Per-connection read **and** write deadline: a client that stalls
    /// mid-request or stops draining its response is disconnected rather
    /// than holding a worker thread forever.
    pub request_timeout: Duration,
    /// Enable `/sessions/{name}/debug-*` chaos endpoints (panic and sleep
    /// injection). Test-only: never exposed through the CLI.
    pub debug_endpoints: bool,
}

/// Default per-connection read/write deadline.
const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

impl ServeConfig {
    /// A daemon on `addr` over `pipeline`, without persistence.
    pub fn new(addr: impl Into<String>, pipeline: DedupPipeline) -> Self {
        Self {
            addr: addr.into(),
            pipeline,
            snapshot_dir: None,
            autosave_interval: None,
            wal_dir: None,
            max_inflight: None,
            request_timeout: DEFAULT_REQUEST_TIMEOUT,
            debug_endpoints: false,
        }
    }

    /// Enable snapshot autoload/autosave under `dir`.
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Autosave all sessions every `interval`.
    pub fn autosave_interval(mut self, interval: Duration) -> Self {
        self.autosave_interval = Some(interval);
        self
    }

    /// Enable write-ahead journaling under `dir`.
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Shed session requests beyond `bound` concurrently in flight.
    pub fn max_inflight(mut self, bound: u64) -> Self {
        self.max_inflight = Some(bound);
        self
    }

    /// Set the per-connection read/write deadline.
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Enable the chaos-injection debug endpoints (tests only).
    pub fn debug_endpoints(mut self, enabled: bool) -> Self {
        self.debug_endpoints = enabled;
        self
    }
}

/// What one finished server run did (returned by [`Server::run`] /
/// [`RunningServer::shutdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Sessions persisted by the shutdown autosave.
    pub sessions_saved: usize,
}

/// One named resident session.
struct SessionEntry {
    /// The session and its write-ahead journal (when the daemon runs with
    /// `--wal-dir`). Lock order: writer mutex, then session lock. Reads
    /// take the session read lock only; `ingest`, `dedup` and saves hold
    /// the writer mutex throughout — one at a time per session — and take
    /// the session lock as the phases need it (see
    /// `probdedup_core::shared`).
    shared: SharedSession,
    /// Quarantined after a panic poisoned its locks: the in-memory state
    /// may be inconsistent, so the session answers 503 until a restart
    /// recovers it from `snapshot + journal` (the durable state is
    /// untouched — journaling happens before mutation).
    degraded: AtomicBool,
    opened: Instant,
    /// Restored from a snapshot/journal at boot (vs. created by a request).
    restored: bool,
    /// Key renders the session carried when it was opened/created —
    /// taken after `open` rebuilt the pools from the snapshot's relation
    /// and after the journal replay, so `/stats` reports only what served
    /// requests rendered: `key_renders_since_open: 0` on a restored
    /// session is the daemon-level reuse certificate.
    base_key_renders: u64,
}

/// The quarantine answer for a degraded session.
fn degraded_response() -> Response {
    Response::error(
        503,
        "session degraded by an earlier panic; restart the daemon to recover it from snapshot + journal",
    )
}

impl SessionEntry {
    fn new(session: DedupSession, restored: bool, journal: Option<SessionJournal>) -> Self {
        let base_key_renders = session.key_render_count();
        Self {
            shared: SharedSession::new(session, journal),
            degraded: AtomicBool::new(false),
            opened: Instant::now(),
            restored,
            base_key_renders,
        }
    }

    /// Mark the session degraded (idempotent; bumps the gauge once) and
    /// return the quarantine answer.
    fn mark_degraded(&self, state: &ServerState) -> Response {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            state.sessions_degraded.fetch_add(1, Ordering::Relaxed);
        }
        degraded_response()
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Read access honoring the quarantine: a poisoned session (a handler
    /// panicked mid-write) degrades *here*, instead of serving
    /// possibly-inconsistent state as truth.
    fn read_guard(
        &self,
        state: &ServerState,
    ) -> Result<RwLockReadGuard<'_, DedupSession>, Response> {
        if self.is_degraded() {
            return Err(degraded_response());
        }
        self.shared.read().map_err(|_| self.mark_degraded(state))
    }

    /// The same session read for the ops views (`/stats`, `/sessions`),
    /// which report on a quarantined session too.
    fn peek(&self) -> RwLockReadGuard<'_, DedupSession> {
        self.shared.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one write (`ingest` or `dedup`, named `verb`) and count its
    /// journal append; a refused write becomes its answer.
    fn write<T>(
        &self,
        state: &ServerState,
        verb: &str,
        f: impl FnOnce(&SharedSession) -> Result<T, WriteError>,
    ) -> Result<T, Response> {
        match f(&self.shared) {
            Ok(out) => {
                if self.shared.is_journaled() {
                    state.wal_appends.fetch_add(1, Ordering::Relaxed);
                }
                Ok(out)
            }
            Err(WriteError::Poisoned) => Err(self.mark_degraded(state)),
            Err(WriteError::Refused(SnapshotError::Model(e))) => {
                Err(Response::error(409, &format!("{verb}: {e}")))
            }
            Err(WriteError::Refused(e)) => {
                Err(Response::error(500, &format!("journal append: {e}")))
            }
        }
    }

    /// Save the session to `path`, then compact the journal, with no
    /// write in flight (`SharedSession::settled`): the snapshot provably
    /// covers every sequence the compaction truncates, and no two savers
    /// share the staging file. Readers are not held up. Returns the rows
    /// and decided pairs saved. A compaction failure is logged, not
    /// returned — the snapshot is durable and the journal merely longer
    /// than it must be.
    fn persist(
        &self,
        state: &ServerState,
        path: &std::path::Path,
    ) -> Result<Result<(usize, usize), SnapshotError>, Response> {
        if self.is_degraded() {
            return Err(degraded_response());
        }
        self.shared
            .settled(|session, journal| {
                session.save(path)?;
                if let Some(journal) = journal {
                    if let Err(e) = journal.compact(session.journal_seq()) {
                        eprintln!("probdedup-serve: compact {}: {e}", journal.path().display());
                    }
                }
                Ok((session.rows(), session.candidate_count()))
            })
            .ok_or_else(|| self.mark_degraded(state))
    }
}

/// Per-endpoint request counters (reported by `/stats`).
#[derive(Default)]
struct EndpointCounters {
    dedup: AtomicU64,
    ingest: AtomicU64,
    query: AtomicU64,
    partition: AtomicU64,
    snapshot: AtomicU64,
    entities: AtomicU64,
}

struct ServerState {
    pipeline: DedupPipeline,
    snapshot_dir: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    sessions: RwLock<BTreeMap<String, Arc<SessionEntry>>>,
    started: Instant,
    shutting_down: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    pairs_classified: AtomicU64,
    autosaves: AtomicU64,
    endpoints: EndpointCounters,
    /// Admission control: session requests currently executing, the bound
    /// past which new ones are shed, and the high-water mark (the proof
    /// the bound was never exceeded).
    max_inflight: Option<u64>,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
    requests_shed: AtomicU64,
    /// Handler panics caught at the connection boundary (the process
    /// lives; the affected session is quarantined on next touch).
    panics_caught: AtomicU64,
    sessions_degraded: AtomicU64,
    /// Journal records appended / replayed since open.
    wal_appends: AtomicU64,
    wal_replayed: AtomicU64,
    request_timeout: Duration,
    debug_endpoints: bool,
}

/// RAII slot in the in-flight gate (released even when the handler
/// panics — the guard lives outside the `catch_unwind`).
struct InflightSlot<'a>(&'a ServerState);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServerState {
    /// Try to enter the in-flight gate; `None` means shed this request.
    fn try_acquire_slot(&self) -> Option<InflightSlot<'_>> {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        if self.max_inflight.is_some_and(|bound| now > bound) {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.requests_shed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.inflight_peak.fetch_max(now, Ordering::SeqCst);
        Some(InflightSlot(self))
    }
}

/// Read-lock tolerating poisoning: a panicking handler thread must not
/// wedge every later request (the session data itself is only mutated
/// under panic-free pure-Rust code paths).
fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn wlock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Session names double as snapshot file stems: URL- and filesystem-safe,
/// no dotfiles / path tricks.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Collect the valid session names of every `*.{ext}` file in `dir`.
fn collect_stems(
    dir: &std::path::Path,
    ext: &str,
    out: &mut std::collections::BTreeSet<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != ext) {
            continue;
        }
        if let Some(name) = path.file_stem().and_then(|s| s.to_str()) {
            if valid_name(name) {
                out.insert(name.to_string());
            }
        }
    }
    Ok(())
}

fn class_name(class: MatchClass) -> &'static str {
    match class {
        MatchClass::Match => "match",
        MatchClass::Possible => "possible",
        MatchClass::NonMatch => "non-match",
    }
}

fn clusters_json(clusters: &[Vec<usize>]) -> String {
    let inner: Vec<String> = clusters
        .iter()
        .map(|c| {
            let rows: Vec<String> = c.iter().map(usize::to_string).collect();
            format!("[{}]", rows.join(", "))
        })
        .collect();
    format!("[{}]", inner.join(", "))
}

impl ServerState {
    fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn snapshot_path(&self, name: &str) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.snap")))
    }

    fn wal_path(&self, name: &str) -> Option<PathBuf> {
        self.wal_dir.as_ref().map(|d| d.join(format!("{name}.wal")))
    }

    /// Get or create the named session (creation is what `ingest` and
    /// `dedup` do on first contact; read endpoints 404 instead). With
    /// journaling on, creation opens the session's journal *before* the
    /// entry becomes visible — a session the registry serves always has a
    /// durable append path.
    fn entry_or_create(&self, name: &str) -> Result<Arc<SessionEntry>, Response> {
        if let Some(e) = rlock(&self.sessions).get(name) {
            return Ok(e.clone());
        }
        let mut registry = wlock(&self.sessions);
        if let Some(e) = registry.get(name) {
            return Ok(e.clone());
        }
        let mut session = self.pipeline.session();
        let journal = match self.wal_path(name) {
            None => None,
            Some(path) => match SessionJournal::open_and_replay(&path, &mut session) {
                Ok((journal, replay)) => {
                    self.wal_replayed
                        .fetch_add(replay.replayed, Ordering::Relaxed);
                    Some(journal)
                }
                Err(e) => {
                    return Err(Response::error(
                        500,
                        &format!("cannot open journal {}: {e}", path.display()),
                    ));
                }
            },
        };
        let entry = Arc::new(SessionEntry::new(session, false, journal));
        registry.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    fn entry(&self, name: &str) -> Option<Arc<SessionEntry>> {
        rlock(&self.sessions).get(name).cloned()
    }

    /// Persist every non-empty session to the snapshot directory and
    /// compact its journal. Returns how many were saved; failures are
    /// reported but do not abort the sweep (one bad disk sector must not
    /// lose the rest). Degraded sessions are skipped — their in-memory
    /// state is suspect, and their durable `snapshot + journal` is intact
    /// precisely because nothing overwrites it after the quarantine.
    fn save_all(&self) -> usize {
        let Some(_) = self.snapshot_dir else { return 0 };
        let entries: Vec<(String, Arc<SessionEntry>)> = rlock(&self.sessions)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut saved = 0;
        for (name, entry) in entries {
            let path = self
                .snapshot_path(&name)
                .expect("snapshot_dir checked above");
            if entry.read_guard(self).is_ok_and(|s| s.is_empty()) {
                continue;
            }
            match entry.persist(self, &path) {
                Ok(Ok(_)) => saved += 1,
                Ok(Err(e)) => eprintln!("probdedup-serve: autosave {}: {e}", path.display()),
                Err(_) => eprintln!(
                    "probdedup-serve: autosave {}: session degraded, keeping last durable state",
                    path.display()
                ),
            }
        }
        saved
    }

    /// Flip into shutdown and unblock the accept loop with a self-connect
    /// (the listener is blocking; without a nudge it would only notice on
    /// the next external connection).
    fn begin_shutdown(&self, addr: SocketAddr) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }
}

// ---------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------

fn handle_request(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => handle_health(state),
        ("GET", "/stats") => handle_stats(state),
        ("GET", "/sessions") => handle_sessions(state),
        ("POST", "/shutdown") => {
            Response::json(200, "{\"status\": \"shutting down\"}\n".to_string())
        }
        (_, "/health" | "/stats" | "/sessions" | "/shutdown") => {
            Response::error(405, "method not allowed")
        }
        _ => handle_session_route(state, req),
    }
}

fn handle_health(state: &ServerState) -> Response {
    let degraded = state.sessions_degraded.load(Ordering::Relaxed);
    Response::json(
        200,
        format!(
            concat!(
                "{{\"status\": \"{}\", \"sessions\": {}, \"sessions_degraded\": {}, ",
                "\"uptime_secs\": {:.3}}}\n"
            ),
            if degraded == 0 { "ok" } else { "degraded" },
            rlock(&state.sessions).len(),
            degraded,
            state.uptime_secs(),
        ),
    )
}

/// `"ok"` / `"degraded"` for a session's health-state field.
fn entry_state(e: &SessionEntry) -> &'static str {
    if e.is_degraded() {
        "degraded"
    } else {
        "ok"
    }
}

fn handle_sessions(state: &ServerState) -> Response {
    let rows: Vec<String> = rlock(&state.sessions)
        .iter()
        .map(|(name, e)| {
            let s = e.peek();
            format!(
                "{{\"name\": {}, \"rows\": {}, \"sources\": {}, \"restored\": {}, \"state\": \"{}\"}}",
                json_string(name),
                s.rows(),
                s.source_count(),
                e.restored,
                entry_state(e),
            )
        })
        .collect();
    Response::json(200, format!("{{\"sessions\": [{}]}}\n", rows.join(", ")))
}

fn handle_stats(state: &ServerState) -> Response {
    let session_rows: Vec<String> = rlock(&state.sessions)
        .iter()
        .map(|(name, e)| (name.clone(), e.clone()))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(name, e)| {
            let s = e.peek();
            format!(
                concat!(
                    "{{\"name\": {}, \"rows\": {}, \"sources\": {}, \"candidates\": {}, ",
                    "\"decided_pairs\": {}, \"interned_values\": {}, \"uptime_secs\": {:.3}, ",
                    "\"restored\": {}, \"state\": \"{}\", \"journal_seq\": {}, ",
                    "\"key_renders\": {}, \"key_renders_since_open\": {}}}"
                ),
                json_string(&name),
                s.rows(),
                s.source_count(),
                s.candidate_count(),
                s.candidate_count(),
                s.interned_value_count(),
                e.opened.elapsed().as_secs_f64(),
                e.restored,
                entry_state(&e),
                s.journal_seq(),
                s.key_render_count(),
                s.key_render_count() - e.base_key_renders,
            )
        })
        .collect();
    let wal_replayed = state.wal_replayed.load(Ordering::Relaxed);
    Response::json(
        200,
        format!(
            concat!(
                "{{\"status\": \"ok\", \"uptime_secs\": {:.3}, \"requests\": {}, ",
                "\"errors\": {}, \"pairs_classified\": {}, \"autosaves\": {}, ",
                "\"requests_dedup\": {}, \"requests_ingest\": {}, \"requests_query\": {}, ",
                "\"requests_partition\": {}, \"requests_snapshot\": {}, ",
                "\"requests_entities\": {}, ",
                "\"wal_appends\": {}, \"wal_replayed_records\": {}, ",
                "\"journal_replayed_records\": {}, \"requests_shed\": {}, ",
                "\"panics_caught\": {}, \"sessions_degraded\": {}, \"inflight_peak\": {}, ",
                "\"sessions\": [{}]}}\n"
            ),
            state.uptime_secs(),
            state.requests.load(Ordering::Relaxed),
            state.errors.load(Ordering::Relaxed),
            state.pairs_classified.load(Ordering::Relaxed),
            state.autosaves.load(Ordering::Relaxed),
            state.endpoints.dedup.load(Ordering::Relaxed),
            state.endpoints.ingest.load(Ordering::Relaxed),
            state.endpoints.query.load(Ordering::Relaxed),
            state.endpoints.partition.load(Ordering::Relaxed),
            state.endpoints.snapshot.load(Ordering::Relaxed),
            state.endpoints.entities.load(Ordering::Relaxed),
            state.wal_appends.load(Ordering::Relaxed),
            wal_replayed,
            // Alias of wal_replayed_records (the ops-facing name).
            wal_replayed,
            state.requests_shed.load(Ordering::Relaxed),
            state.panics_caught.load(Ordering::Relaxed),
            state.sessions_degraded.load(Ordering::Relaxed),
            state.inflight_peak.load(Ordering::Relaxed),
            session_rows.join(", "),
        ),
    )
}

/// Routes of the shape `/sessions/{name}/{action}`.
fn handle_session_route(state: &ServerState, req: &Request) -> Response {
    let Some(rest) = req.path.strip_prefix("/sessions/") else {
        return Response::error(404, "no such endpoint");
    };
    let Some((name, action)) = rest.split_once('/') else {
        return Response::error(404, "expected /sessions/{name}/{action}");
    };
    if !valid_name(name) {
        return Response::error(
            400,
            "session names are 1-64 chars of [A-Za-z0-9._-], starting alphanumeric",
        );
    }
    match (req.method.as_str(), action) {
        ("POST", "ingest") => handle_ingest(state, name, &req.body),
        ("POST", "dedup") => handle_dedup(state, name, &req.body),
        ("GET", "query") => handle_query(state, name, req),
        ("GET", "partition") => handle_partition(state, name, req),
        ("GET", "entities") => handle_entities(state, name, req),
        ("POST", "snapshot") => handle_snapshot(state, name),
        ("POST", "debug-panic") if state.debug_endpoints => handle_debug_panic(state, name),
        ("GET", "debug-sleep") if state.debug_endpoints => handle_debug_sleep(req),
        (_, "ingest" | "dedup" | "query" | "partition" | "snapshot" | "entities") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "unknown session action"),
    }
}

/// `POST /sessions/{name}/debug-panic` (chaos injection, test builds of
/// the config only): panic while holding the session's writer mutex, as a
/// panicking ingest phase would — exactly the failure `catch_unwind` +
/// quarantine must contain.
fn handle_debug_panic(state: &ServerState, name: &str) -> Response {
    let Some(entry) = state.entry(name) else {
        return Response::error(404, "no such session");
    };
    entry
        .shared
        .settled(|_, _| -> Response { panic!("injected panic (debug-panic endpoint)") })
        .unwrap_or_else(degraded_response)
}

/// `GET /sessions/{name}/debug-sleep?ms=N` (chaos injection): occupy an
/// in-flight slot for `ms` milliseconds, for deterministic shedding tests.
fn handle_debug_sleep(req: &Request) -> Response {
    let ms: u64 = req
        .query_value("ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
        .min(5_000);
    std::thread::sleep(Duration::from_millis(ms));
    Response::json(200, format!("{{\"slept_ms\": {ms}}}\n"))
}

/// Parse a `.pxr` body and check its arity against the pipeline.
fn parse_body_relation(
    state: &ServerState,
    body: &[u8],
) -> Result<probdedup_model::relation::XRelation, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "body must be UTF-8 .pxr text"))?;
    let rel = parse_xrelation(text).map_err(|e| Response::error(400, &format!("parse: {e}")))?;
    let want = state.pipeline.arity();
    if rel.schema().arity() != want {
        return Err(Response::error(
            409,
            &format!(
                "relation arity {} does not match the serving pipeline arity {want}",
                rel.schema().arity()
            ),
        ));
    }
    Ok(rel)
}

fn handle_ingest(state: &ServerState, name: &str, body: &[u8]) -> Response {
    state.endpoints.ingest.fetch_add(1, Ordering::Relaxed);
    let rel = match parse_body_relation(state, body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let entry = match state.entry_or_create(name) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    // Write-ahead discipline: validate, journal + fsync, then mutate —
    // with reads served throughout but for the two short steps that grow
    // and publish (see `probdedup_core::shared`). A journal append failure
    // refuses the batch with memory and disk still in agreement; an
    // accepted batch is durable before this response is even built.
    let step = match entry.write(state, "ingest", |s| s.ingest(&rel)) {
        Ok(step) => step,
        Err(resp) => return resp,
    };
    state
        .pairs_classified
        .fetch_add(step.new_decisions.len() as u64, Ordering::Relaxed);
    // After the ingest, rows end where the batch does and the decision
    // memo holds one decision per candidate.
    Response::json(
        200,
        format!(
            concat!(
                "{{\"session\": {}, \"rows_added\": {}, \"new_pairs\": {}, ",
                "\"new_matches\": {}, \"candidates\": {}, \"rows\": {}, ",
                "\"decided_pairs\": {}}}\n"
            ),
            json_string(name),
            step.rows_added(),
            step.new_decisions.len(),
            step.matches().count(),
            step.candidates,
            step.new_rows.end,
            step.candidates,
        ),
    )
}

/// The body of `dedup` and `partition`: counts, clusters and the summary
/// line, plus — for `partition?full=1` — every decision in candidate order.
fn partition_json(name: &str, partition: &Partition, decisions: Option<&[PairDecision]>) -> String {
    let decisions = match decisions {
        Some(decisions) => {
            let rows: Vec<String> = decisions
                .iter()
                .map(|d| {
                    format!(
                        "{{\"i\": {}, \"j\": {}, \"similarity\": {:.6}, \"class\": \"{}\"}}",
                        d.pair.0,
                        d.pair.1,
                        d.similarity,
                        class_name(d.class),
                    )
                })
                .collect();
            format!(", \"decisions\": [{}]", rows.join(", "))
        }
        None => String::new(),
    };
    format!(
        concat!(
            "{{\"session\": {}, \"rows\": {}, \"candidates\": {}, \"matches\": {}, ",
            "\"possible\": {}, \"clusters\": {}, \"summary\": {}{}}}\n"
        ),
        json_string(name),
        partition.rows,
        partition.candidates,
        partition.matches,
        partition.possible,
        clusters_json(&partition.clusters),
        json_string(&partition.summary()),
        decisions,
    )
}

/// `POST /sessions/{name}/dedup`: (re)run the session over the posted
/// relation as the whole corpus — warm state carries over, so re-posting
/// an unchanged corpus replays from the warm pools (zero key renders).
fn handle_dedup(state: &ServerState, name: &str, body: &[u8]) -> Response {
    state.endpoints.dedup.fetch_add(1, Ordering::Relaxed);
    let rel = match parse_body_relation(state, body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let entry = match state.entry_or_create(name) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    // Corpus replacements journal like ingests: recovery must converge to
    // the same resident corpus (see `probdedup_core::wal`).
    let result = match entry.write(state, "dedup", |s| s.run(&rel)) {
        Ok(result) => result,
        Err(resp) => return resp,
    };
    state
        .pairs_classified
        .fetch_add(result.decisions.len() as u64, Ordering::Relaxed);
    Response::json(200, partition_json(name, &result.partition(), None))
}

/// `GET /sessions/{name}/query?i=..&j=..`: classify one resident pair
/// through the session's `&self` read path — concurrent with other
/// readers and with an ingest's classification, blocked only by its two
/// short write-locked steps (grow, publish) or by a `dedup`.
fn handle_query(state: &ServerState, name: &str, req: &Request) -> Response {
    state.endpoints.query.fetch_add(1, Ordering::Relaxed);
    let Some(entry) = state.entry(name) else {
        return Response::error(404, "no such session");
    };
    let parse = |key: &str| -> Result<usize, Response> {
        req.query_value(key)
            .ok_or_else(|| Response::error(400, &format!("query needs ?{key}=ROW")))?
            .parse()
            .map_err(|_| Response::error(400, &format!("?{key} must be a row index")))
    };
    let (i, j) = match (parse("i"), parse("j")) {
        (Ok(i), Ok(j)) => (i, j),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    if i == j {
        return Response::error(
            400,
            &format!("rows ({i}, {j}): a row is not a pair with itself"),
        );
    }
    let session = match entry.read_guard(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    match session.classify_pair(i, j) {
        Some(d) => {
            state.pairs_classified.fetch_add(1, Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"session\": {}, \"i\": {}, \"j\": {}, \"similarity\": {:.6}, \"class\": \"{}\"}}\n",
                    json_string(name),
                    d.pair.0,
                    d.pair.1,
                    d.similarity,
                    class_name(d.class),
                ),
            )
        }
        None => Response::error(
            400,
            &format!(
                "rows ({i}, {j}) out of range for {} resident rows",
                session.rows()
            ),
        ),
    }
}

/// `GET /sessions/{name}/partition[?full=1]`: the merged resident view —
/// read off the decision memo, or off `result()` when `full` asks for the
/// decisions in candidate order.
fn handle_partition(state: &ServerState, name: &str, req: &Request) -> Response {
    state.endpoints.partition.fetch_add(1, Ordering::Relaxed);
    let Some(entry) = state.entry(name) else {
        return Response::error(404, "no such session");
    };
    let full = req
        .query_value("full")
        .is_some_and(|v| v == "1" || v == "true");
    let session = match entry.read_guard(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    // Only the decision list needs candidate order, and with it `result()`.
    let body = if full {
        let result = session.result();
        partition_json(name, &result.partition(), Some(&result.decisions))
    } else {
        partition_json(name, &session.partition(), None)
    };
    Response::json(200, body)
}

/// `GET /sessions/{name}/entities[?strategy=components|correlation-greedy|correlation-repaired]`:
/// the resident corpus resolved into entities — a deterministic function
/// of the session's decisions, computed per request under the read lock.
fn handle_entities(state: &ServerState, name: &str, req: &Request) -> Response {
    state.endpoints.entities.fetch_add(1, Ordering::Relaxed);
    let Some(entry) = state.entry(name) else {
        return Response::error(404, "no such session");
    };
    let strategy = match req.query_value("strategy") {
        None => ClusterStrategy::Components,
        Some(s) => match ClusterStrategy::from_name(s) {
            Some(s) => s,
            None => {
                return Response::error(
                    400,
                    "?strategy must be components, correlation-greedy or correlation-repaired",
                )
            }
        },
    };
    let session = match entry.read_guard(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let res = session.resolve_entities(strategy);
    Response::json(
        200,
        format!(
            concat!(
                "{{\"session\": {}, \"strategy\": {}, \"rows\": {}, \"entities\": {}, ",
                "\"duplicates\": {}, \"max_cluster_size\": {}, \"positive_edges\": {}, ",
                "\"negative_edges\": {}, \"possible_edges\": {}, ",
                "\"inconsistent_triangles\": {}, \"repair_moves\": {}, \"clusters\": {}}}\n"
            ),
            json_string(name),
            json_string(res.strategy.name()),
            res.stats.rows,
            res.stats.entities,
            res.stats.duplicates,
            res.stats.max_cluster_size,
            res.stats.positive_edges,
            res.stats.negative_edges,
            res.stats.possible_edges,
            res.stats.inconsistent_triangles,
            res.stats.repair_moves,
            clusters_json(&res.clusters),
        ),
    )
}

fn handle_snapshot(state: &ServerState, name: &str) -> Response {
    state.endpoints.snapshot.fetch_add(1, Ordering::Relaxed);
    let Some(entry) = state.entry(name) else {
        return Response::error(404, "no such session");
    };
    let Some(path) = state.snapshot_path(name) else {
        return Response::error(400, "no snapshot directory configured (--snapshot-dir)");
    };
    match entry.persist(state, &path) {
        Ok(Ok((rows, decided_pairs))) => {
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            Response::json(
                200,
                format!(
                    "{{\"session\": {}, \"path\": {}, \"bytes\": {}, \"rows\": {}, \"decided_pairs\": {}}}\n",
                    json_string(name),
                    json_string(&path.display().to_string()),
                    bytes,
                    rows,
                    decided_pairs,
                ),
            )
        }
        Ok(Err(e)) => Response::error(500, &format!("snapshot: {e}")),
        Err(resp) => resp,
    }
}

// ---------------------------------------------------------------------
// Connection loop
// ---------------------------------------------------------------------

/// Session routes (`/sessions/{name}/{action}`) pass through the
/// admission gate; the ops surface (`/health`, `/stats`, `/sessions`,
/// `/shutdown`) stays exempt so visibility survives overload.
fn is_session_route(path: &str) -> bool {
    path.strip_prefix("/sessions/")
        .is_some_and(|rest| rest.contains('/'))
}

/// Dispatch one request behind the in-flight gate and a panic boundary.
/// The slot guard lives *outside* the `catch_unwind`, so a panicking
/// handler still releases its slot; the panic itself becomes a 500 and
/// the process keeps serving (the touched session is quarantined by its
/// poisoned lock on next access).
fn dispatch(state: &ServerState, req: &Request) -> Response {
    let _slot = if is_session_route(&req.path) {
        match state.try_acquire_slot() {
            Some(slot) => Some(slot),
            None => {
                return Response::shed("server at --max-inflight capacity; retry shortly", 1);
            }
        }
    } else {
        None
    };
    match catch_unwind(AssertUnwindSafe(|| handle_request(state, req))) {
        Ok(resp) => resp,
        Err(_) => {
            state.panics_caught.fetch_add(1, Ordering::Relaxed);
            Response::error(500, "internal panic (caught; connection isolated)")
        }
    }
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.request_timeout));
    let _ = stream.set_write_timeout(Some(state.request_timeout));
    let mut peer = stream.try_clone();
    let mut reader = std::io::BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                state.errors.fetch_add(1, Ordering::Relaxed);
                if let Ok(ref mut out) = peer {
                    let resp = Response::error(e.status(), &e.detail());
                    let _ = write_response(out, &resp, false);
                }
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);

        let shutdown_request = req.method == "POST" && req.path == "/shutdown";
        let resp = if state.shutting_down.load(Ordering::SeqCst) && !shutdown_request {
            Response::error(503, "shutting down")
        } else {
            dispatch(&state, &req)
        };
        if resp.status >= 400 {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }

        let keep = req.keep_alive && !shutdown_request;
        let Ok(ref mut out) = peer else { return };
        if write_response(out, &resp, keep).is_err() {
            return;
        }
        if shutdown_request {
            // Respond first, then trip the accept loop.
            if let Ok(addr) = out.local_addr() {
                state.begin_shutdown(addr);
            }
            return;
        }
        if !keep {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Signals (unix): a raw libc `signal` registration — std links libc
// already, and the handler only flips an atomic, which is async-signal
// safe. The watcher thread translates the flag into a graceful shutdown.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SIGNALED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn pending() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound (not yet serving) daemon. [`Server::bind`] performs the
/// snapshot autoload; [`Server::run`] blocks on the accept loop until a
/// graceful shutdown, [`Server::spawn`] does the same on a background
/// thread.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
    autosave_interval: Option<Duration>,
}

/// A server running on a background thread (see [`Server::spawn`]).
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl RunningServer {
    /// The bound address (the actual port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful shutdown and wait for the accept loop to
    /// drain and autosave.
    pub fn shutdown(self) -> std::thread::Result<ServeSummary> {
        self.state.begin_shutdown(self.addr);
        self.thread.join()
    }
}

impl Server {
    /// Bind the listener and autoload any snapshots in the configured
    /// directory. Fails loudly on an unbindable address or a corrupt /
    /// config-mismatched snapshot.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;

        // Boot over the *union* of snapshot and journal names: a session
        // whose snapshot never happened (crash before the first save)
        // still exists durably as `NAME.wal` and must come back.
        let mut boot_names = std::collections::BTreeSet::new();
        if let Some(dir) = &config.snapshot_dir {
            std::fs::create_dir_all(dir).map_err(|e| ServeError::SnapshotDir(dir.clone(), e))?;
            collect_stems(dir, "snap", &mut boot_names)
                .map_err(|e| ServeError::SnapshotDir(dir.clone(), e))?;
        }
        if let Some(dir) = &config.wal_dir {
            std::fs::create_dir_all(dir).map_err(|e| ServeError::WalDir(dir.clone(), e))?;
            // Probe writability now: an ingest that cannot journal would
            // otherwise only surface after the daemon accepted traffic.
            let probe = dir.join(".wal-write-probe");
            std::fs::write(&probe, b"probe").map_err(|e| ServeError::WalDir(dir.clone(), e))?;
            std::fs::remove_file(&probe).map_err(|e| ServeError::WalDir(dir.clone(), e))?;
            collect_stems(dir, "wal", &mut boot_names)
                .map_err(|e| ServeError::WalDir(dir.clone(), e))?;
        }

        let mut sessions = BTreeMap::new();
        let mut wal_replayed_total = 0u64;
        for name in boot_names {
            let snap_path = config
                .snapshot_dir
                .as_ref()
                .map(|d| d.join(format!("{name}.snap")))
                .filter(|p| p.is_file());
            let mut restored = snap_path.is_some();
            let mut session = match &snap_path {
                Some(path) => DedupSession::open(path, &config.pipeline)
                    .map_err(|e| ServeError::Snapshot(path.clone(), e))?,
                None => config.pipeline.session(),
            };
            let journal = match &config.wal_dir {
                None => None,
                Some(dir) => {
                    let path = dir.join(format!("{name}.wal"));
                    let (journal, replay) = SessionJournal::open_and_replay(&path, &mut session)
                        .map_err(|e| ServeError::Wal(path.clone(), e))?;
                    wal_replayed_total += replay.replayed;
                    restored |= replay.replayed > 0;
                    Some(journal)
                }
            };
            sessions.insert(
                name,
                Arc::new(SessionEntry::new(session, restored, journal)),
            );
        }

        let state = Arc::new(ServerState {
            pipeline: config.pipeline,
            snapshot_dir: config.snapshot_dir,
            wal_dir: config.wal_dir,
            sessions: RwLock::new(sessions),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            pairs_classified: AtomicU64::new(0),
            autosaves: AtomicU64::new(0),
            endpoints: EndpointCounters::default(),
            max_inflight: config.max_inflight,
            inflight: AtomicU64::new(0),
            inflight_peak: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            sessions_degraded: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_replayed: AtomicU64::new(wal_replayed_total),
            request_timeout: config.request_timeout,
            debug_endpoints: config.debug_endpoints,
        });
        Ok(Self {
            listener,
            addr,
            state,
            autosave_interval: config.autosave_interval,
        })
    }

    /// The bound address (the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Names of the sessions restored by the boot autoload.
    pub fn restored_sessions(&self) -> Vec<String> {
        rlock(&self.state.sessions).keys().cloned().collect()
    }

    /// Serve until graceful shutdown (`POST /shutdown`, SIGTERM or
    /// SIGINT), then autosave every session and return the summary.
    pub fn run(self) -> ServeSummary {
        signals::install();
        let state = self.state.clone();
        let addr = self.addr;

        // Watcher: translate a signal into the same graceful path as
        // POST /shutdown (flag + accept-loop nudge).
        let watcher = {
            let state = state.clone();
            std::thread::spawn(move || loop {
                if state.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if signals::pending() {
                    state.begin_shutdown(addr);
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
        };

        // Interval autosave (only with a snapshot dir).
        let autosaver = self
            .autosave_interval
            .filter(|_| state.snapshot_dir.is_some())
            .map(|interval| {
                let state = state.clone();
                std::thread::spawn(move || {
                    let mut last = Instant::now();
                    loop {
                        if state.shutting_down.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(interval.min(Duration::from_millis(200)));
                        if last.elapsed() >= interval {
                            state.save_all();
                            state.autosaves.fetch_add(1, Ordering::Relaxed);
                            last = Instant::now();
                        }
                    }
                })
            });

        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = state.clone();
            workers.push(std::thread::spawn(move || handle_connection(state, stream)));
            workers.retain(|w| !w.is_finished());
        }
        drop(self.listener);
        for w in workers {
            let _ = w.join();
        }
        let _ = watcher.join();
        if let Some(a) = autosaver {
            let _ = a.join();
        }

        let sessions_saved = state.save_all();
        ServeSummary {
            requests: state.requests.load(Ordering::Relaxed),
            sessions_saved,
        }
    }

    /// Run on a background thread; shut down via
    /// [`RunningServer::shutdown`] (or a client `POST /shutdown`).
    pub fn spawn(self) -> RunningServer {
        let addr = self.addr;
        let state = self.state.clone();
        let thread = std::thread::spawn(move || self.run());
        RunningServer {
            addr,
            state,
            thread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_names_are_validated() {
        assert!(valid_name("census"));
        assert!(valid_name("a"));
        assert!(valid_name("run-2.v1_final"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has/slash"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_name("-leading-dash"));
    }

    #[test]
    fn clusters_render_as_nested_arrays() {
        assert_eq!(clusters_json(&[]), "[]");
        assert_eq!(
            clusters_json(&[vec![0, 3], vec![5, 6, 9]]),
            "[[0, 3], [5, 6, 9]]"
        );
    }
}

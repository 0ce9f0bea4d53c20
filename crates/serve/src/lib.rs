//! # probdedup-serve — the serving front door
//!
//! A std-only HTTP/1.1 daemon that keeps warm
//! [`DedupSession`](probdedup_core::session::DedupSession)s resident and
//! exposes them to clients over named sessions: `dedup`, `ingest`,
//! `query`, `partition` and `snapshot` endpoints, plus `/stats`,
//! `/health`, `/sessions` and `/shutdown`. No async runtime and no HTTP
//! crate — the build environment is offline, and the protocol surface is
//! small enough that [`http`] hand-rolls it over
//! [`std::net::TcpListener`] with a thread per connection.
//!
//! ## Concurrency model
//!
//! Each named session is a
//! [`SharedSession`](probdedup_core::shared::SharedSession) inside a
//! registry: a writer mutex (over the session's journal) and the
//! session's `RwLock`, always taken in that order. `query`, `partition`
//! and `entities` are **read** endpoints: they take the session's read
//! lock only and classify through
//! [`classify_pair`](probdedup_core::session::DedupSession::classify_pair)
//! / [`result`](probdedup_core::session::DedupSession::result), both
//! `&self` — classifying writes nothing shared, so concurrent readers
//! never contend on the matching state. `ingest`, `dedup`
//! and `snapshot` hold the writer mutex throughout, so they run one at a
//! time per session. A `dedup` holds the write lock throughout; an
//! `ingest` takes it for two short steps only — growing the append-only
//! warm state and publishing the batch — and journals, fsyncs and
//! classifies while readers are served. Reads answer from the published
//! rows, which change at publish only, so a reader observes either the
//! pre-ingest or the post-ingest partition, never a torn one. A save
//! takes the writer mutex before the read lock, as every writer does, so
//! no two of them can wait on each other in a cycle.
//!
//! ## Snapshot lifecycle
//!
//! With a snapshot directory configured, boot scans it for `NAME.snap`
//! files and re-opens each as warm session `NAME` (a corrupt or
//! config-mismatched file fails the boot loudly — the daemon never
//! silently discards persisted state). Sessions autosave on graceful
//! shutdown (`/shutdown`, SIGTERM, SIGINT) and on a configurable
//! interval, through the same atomic temp+fsync+rename writes the
//! snapshot codec always uses.
//!
//! ## Durability: the write-ahead journal
//!
//! With a WAL directory configured
//! ([`wal_dir`](server::ServeConfig::wal_dir)), every accepted `ingest`
//! and `dedup` batch is appended to `NAME.wal` and fsynced *before* it
//! mutates the session
//! ([`SessionJournal`](probdedup_core::wal::SessionJournal)). Boot then
//! recovers `snapshot + journal tail` — a `kill -9` at any instant loses
//! no acknowledged batch. Each durable snapshot compacts the journal it
//! covers; a torn trailing record (crash mid-append) is truncated away on
//! the next open. The record format and the compaction protocol live in
//! `ARCHITECTURE.md` under *Durability & degradation*.
//!
//! ## Degradation under overload and panics
//!
//! Three hardening layers keep one bad client or one bug from taking the
//! daemon down: a per-connection read/write deadline
//! ([`request_timeout`](server::ServeConfig::request_timeout)) disconnects
//! stalled peers; an admission gate
//! ([`max_inflight`](server::ServeConfig::max_inflight)) sheds session
//! requests past the bound with `503` + `Retry-After` instead of queueing
//! unboundedly (the ops surface — `/health`, `/stats` — stays exempt);
//! and a `catch_unwind` boundary per request turns a handler panic into a
//! `500` while the process keeps serving. A session whose writer mutex
//! was poisoned by such a panic (it is held through every phase of a
//! write) is *quarantined*: it answers `503` and is
//! skipped by autosave (its durable `snapshot + journal` state is intact,
//! because journaling precedes mutation) until a restart replays it back.
//! `/health` reports `"degraded"` while any session is quarantined, and
//! `/stats` carries the full counter set (`wal_appends`,
//! `wal_replayed_records`, `requests_shed`, `panics_caught`,
//! `sessions_degraded`, `inflight_peak`).
//!
//! ```
//! use probdedup_core::Defaults;
//! use probdedup_serve::server::{ServeConfig, Server};
//! use probdedup_serve::client::Client;
//!
//! // The default pipeline over 2-attribute relations, bound to an
//! // ephemeral port:
//! let config = ServeConfig::new("127.0.0.1:0", Defaults::for_arity(2).builder().build());
//! let running = Server::bind(config).unwrap().spawn();
//! let client = Client::new(running.addr());
//!
//! let (status, body) = client.get("/health").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"status\": \"ok\""));
//!
//! let summary = running.shutdown().unwrap();
//! assert_eq!(summary.requests, 1);
//! ```

pub mod client;
pub mod http;
pub mod server;

pub use client::Client;
pub use server::{RunningServer, ServeConfig, ServeError, ServeSummary, Server};

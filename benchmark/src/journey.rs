//! One round of the user journey, executed identically on every
//! workload:
//!
//! ```text
//! batch dedup (bounded) → batch dedup (exact) → entity resolution
//!   → durable streamed ingest → crash → recovery
//!   → daemon: reads beside writes
//! ```
//!
//! Every step is timed through [`Tracer::time`]; an operation shorter
//! than [`MIN_SAMPLE_S`] is repeated inside its sample (the workload
//! fixes the repeat counts, see [`Reps`]). Output checks are counted as
//! operations in [`Ops`] and never timed.

use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use probdedup_core::pipeline::{DedupResult, PairDecision};
use probdedup_core::session::DedupSession;
use probdedup_core::wal::{SessionJournal, WAL_HEADER_LEN};
use probdedup_decision::threshold::MatchClass;
use probdedup_entity::{ClusterStrategy, ResolveEntities};
use probdedup_eval::{ConfusionCounts, EffectivenessMetrics};
use probdedup_serve::client::{Client, Connection};

use crate::host::probe_s;
use crate::json::Json;
use crate::trace::Tracer;
use crate::workload::{Reps, Scratch, Setup, Workload, F1_TOLERANCE};

/// A sample shorter than this is made of several back-to-back
/// repetitions of its operation.
pub const MIN_SAMPLE_S: f64 = 0.25;

/// Output checks and requests, counted as operations.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what.to_string());
            }
        }
    }
}

/// Request classes of the daemon phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Query,
    Partition,
    Entities,
    /// A second identical `entities` request with no ingest in between
    /// (answered from the session's entity memo).
    EntitiesMemo,
    Ingest,
    /// An untimed control request. Only the re-seeding `POST dedup` is
    /// recorded; the tail's first `entities` and the closing `snapshot`
    /// are issued under this class and dropped.
    Seed,
}

impl Class {
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Query => "serve.query",
            Class::Partition => "serve.partition",
            Class::Entities => "serve.entities",
            Class::EntitiesMemo => "serve.entities_memo",
            Class::Ingest => "serve.ingest",
            Class::Seed => "serve.seed",
        }
    }
}

/// One HTTP request as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub class: Class,
    pub start: Instant,
    pub end: Instant,
}

impl Request {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Counts that must repeat exactly: across the rounds of a run and across
/// two runs of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub candidates: usize,
    pub decisions: usize,
    pub matches: usize,
    pub wal_bytes: u64,
    pub pairwise_f1: f64,
}

/// What one round measured. Timings are seconds per single operation.
#[derive(Debug, Clone)]
pub struct RoundSample {
    pub dedup_bounded_s: f64,
    pub dedup_exact_s: f64,
    pub entities_s: f64,
    pub ingest_s: f64,
    pub recover_s: f64,
    pub serve_read_s: f64,
    pub serve_write_s: f64,
    pub counts: Counts,
    /// Host-speed probe readings: one before every journey step and one
    /// after the last (see [`crate::host`]).
    pub host: Vec<f64>,
    /// Every request of the daemon phase (timed blocks and untimed tail).
    pub requests: Vec<Request>,
}

impl RoundSample {
    /// The journey timings in the order of the end-to-end metric table.
    pub fn timings(&self) -> [(&'static str, f64); 7] {
        [
            ("dedup_bounded_s", self.dedup_bounded_s),
            ("dedup_exact_s", self.dedup_exact_s),
            ("entities_s", self.entities_s),
            ("ingest_s", self.ingest_s),
            ("recover_s", self.recover_s),
            ("serve_read_s", self.serve_read_s),
            ("serve_write_s", self.serve_write_s),
        ]
    }
}

/// Pairwise F1 of `result`'s Match pairs against the ground truth.
pub fn pairwise_f1(result: &DedupResult, truth: &HashSet<(usize, usize)>) -> EffectivenessMetrics {
    EffectivenessMetrics::from_counts(&ConfusionCounts::from_pair_sets(
        &result.match_pair_set(),
        truth,
        result.relation.len(),
    ))
}

/// `(pair, class)` of every decision, sorted by pair — the form in which
/// two results' classifications are compared.
fn classes(decisions: &[PairDecision]) -> Vec<((usize, usize), MatchClass)> {
    let mut out: Vec<_> = decisions.iter().map(|d| (d.pair, d.class)).collect();
    out.sort_unstable_by_key(|&(pair, _)| pair);
    out
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Run `f` `reps` times inside one span; seconds per repetition.
fn repeated<T>(tracer: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (out, secs) = tracer.time(name, |_| {
        let mut last = black_box(f());
        for _ in 1..reps {
            last = black_box(f());
        }
        last
    });
    (out, secs / reps as f64)
}

/// A durably ingested session and the crash image it left behind.
pub struct Streamed {
    pub session: DedupSession,
    pub snap: PathBuf,
    pub wal: PathBuf,
    /// First half of the last journal record: the torn tail a crash
    /// mid-append would leave.
    pub torn: Vec<u8>,
    /// Batches acknowledged after the snapshot (what recovery replays).
    pub tail_batches: u64,
    /// Journal record bytes written over the whole stream.
    pub wal_bytes: u64,
    /// Journal creation, then one entry per acknowledged batch.
    pub open_s: f64,
    pub batch_s: Vec<f64>,
    /// The untimed snapshot `save` + journal `compact` at the 75 % mark.
    pub save_s: f64,
}

impl Streamed {
    /// Time to the last ack, snapshot excluded.
    pub fn secs(&self) -> f64 {
        self.open_s + self.batch_s.iter().sum::<f64>()
    }

    /// Complete the crash image: append the torn half-record to the
    /// journal (recovery truncates it again, so every recovery needs it
    /// re-appended).
    pub fn append_torn_record(&self) {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.wal)
            .expect("reopen the scratch journal");
        file.write_all(&self.torn)
            .and_then(|()| file.sync_data())
            .expect("append the torn record");
    }
}

/// Stream the combined corpus as B journaled batches into a fresh
/// session: validate → append + fsync → classify per batch. At the 75 %
/// mark the session is snapshotted and the journal compacted (untimed),
/// so the crash image is `snapshot + 25 % journal tail`.
pub fn stream_ingest(
    setup: &Setup,
    w: &Workload,
    dir: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Streamed {
    let (snap, wal) = (dir.join("bench.snap"), dir.join("bench.wal"));
    let mut session = setup.bounded.session();
    let (opened, open_s) = tracer.time("core.wal.open", |_| {
        SessionJournal::open_and_replay(&wal, &mut session)
    });
    let (mut journal, _) = opened.expect("create a journal in a fresh scratch directory");
    let cut = w.batches * 3 / 4;
    let mut wal_bytes = 0;
    let mut last_record = 0..0;
    let mut batch_s = Vec::with_capacity(w.batches);
    let mut save_s = 0.0;
    for (b, batch) in setup.corpus.batches.iter().enumerate() {
        let before = file_len(&wal);
        let (step, t) = tracer.time("core.wal.ingest", |_| journal.ingest(&mut session, batch));
        batch_s.push(t);
        ops.check("journaled ingest acknowledged", step.is_ok());
        last_record = before..file_len(&wal);
        if b + 1 == cut {
            wal_bytes += file_len(&wal) - WAL_HEADER_LEN;
            let (saved, t) = tracer.time("core.snapshot.save", |_| {
                session
                    .save(&snap)
                    .and_then(|()| journal.compact(session.journal_seq()))
            });
            save_s = t;
            ops.check("snapshot saved and journal compacted", saved.is_ok());
        }
    }
    wal_bytes += file_len(&wal) - WAL_HEADER_LEN;
    let bytes = std::fs::read(&wal).expect("read the journal back from scratch");
    let record = &bytes[last_record.start as usize..last_record.end as usize];
    Streamed {
        session,
        snap,
        wal,
        torn: record[..record.len() / 2].to_vec(),
        tail_batches: (w.batches - cut) as u64,
        wal_bytes,
        open_s,
        batch_s,
        save_s,
    }
}

/// Restart from the crash image: append the torn half-record a crash
/// mid-append leaves (untimed), then snapshot open + journal replay +
/// `result()` — restart → queryable.
fn recover(
    setup: &Setup,
    streamed: &Streamed,
    pre_crash: &[Vec<usize>],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> f64 {
    streamed.append_torn_record();
    let (recovered, secs) = tracer.time("recover", |t| {
        let (session, _) = t.time("core.snapshot.open", |_| {
            DedupSession::open(&streamed.snap, &setup.bounded)
        });
        let mut session = session?;
        let (replayed, _) = t.time("core.wal.replay", |_| {
            SessionJournal::open_and_replay(&streamed.wal, &mut session)
        });
        let (_journal, replay) = replayed?;
        let (result, _) = t.time("core.session.result", |_| session.result());
        Ok::<_, probdedup_model::SnapshotError>((replay, result))
    });
    match recovered {
        Ok((replay, result)) => {
            ops.check(
                "recovery replays exactly the journal tail",
                replay.replayed == streamed.tail_batches,
            );
            ops.check(
                "recovery truncates exactly the torn record",
                replay.truncated_bytes == streamed.torn.len() as u64,
            );
            ops.check(
                "recovered partition ≡ pre-crash partition",
                result.clusters == pre_crash,
            );
        }
        Err(_) => ops.check("recovery from snapshot + journal tail", false),
    }
    secs
}

/// One request on `conn`. A non-200 or an I/O error is a failed
/// operation; after an I/O error the connection is dropped and the next
/// request dials again. Never panics: with the daemon gone, every
/// remaining request fails, both request threads still reach every
/// barrier, and the run ends with a non-zero exit instead of a hang.
fn request(
    client: &Client,
    conn: &mut Option<Connection>,
    class: Class,
    method: &str,
    path: &str,
    body: &[u8],
) -> (Request, bool, String) {
    let start = Instant::now();
    if conn.is_none() {
        *conn = client.keep_alive().ok();
    }
    let outcome = match conn {
        Some(c) => c.request(method, path, body),
        None => Err(std::io::ErrorKind::NotConnected.into()),
    };
    let end = Instant::now();
    let (ok, text) = match outcome {
        Ok((status, text)) => (status == 200, text),
        Err(e) => {
            *conn = None;
            (false, e.to_string())
        }
    };
    (Request { class, start, end }, ok, text)
}

const PARTITION: &str = "/sessions/bench/partition";
const ENTITIES: &str = "/sessions/bench/entities?strategy=correlation-repaired";

/// The reader's `n`-th `query`: a deterministic rotation over pairs of
/// the `resident` seeded rows (`n` starts at the run's `--seed` offset).
fn query_path(n: usize, resident: usize) -> String {
    let i = n % resident;
    let j = (i + 1 + (n * 7) % (resident - 1)) % resident;
    let j = if i == j { (j + 1) % resident } else { j };
    format!("/sessions/bench/query?i={i}&j={j}")
}

/// The heavy read that closes a block: the merged view, and every fifth
/// time the entities (4 : 1, the ratio of "every 20th read `partition`,
/// every 100th `entities`").
fn heavy_read(nth: usize) -> (Class, &'static str) {
    if nth.is_multiple_of(5) {
        (Class::Entities, ENTITIES)
    } else {
        (Class::Partition, PARTITION)
    }
}

/// Does the daemon's `partition` body describe the same merged view as
/// the library session's `result()`?
fn partition_matches(body: &str, expected: &DedupResult) -> bool {
    let Some(doc) = Json::parse(body) else {
        return false;
    };
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    let clusters: Option<Vec<Vec<usize>>> =
        doc.get("clusters").and_then(Json::as_array).map(|cs| {
            cs.iter()
                .map(|c| {
                    c.as_array()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|r| r.as_f64().map(|r| r as usize))
                        .collect()
                })
                .collect()
        });
    num("rows") == Some(expected.relation.len() as f64)
        && num("candidates") == Some(expected.candidates as f64)
        && num("matches") == Some(expected.matches().count() as f64)
        && num("possible") == Some(expected.possible_matches().count() as f64)
        && clusters.as_deref() == Some(&expected.clusters[..])
}

/// Is every `Entities` sample of one daemon phase cold — does none of
/// them follow another entities read with no ingest (or re-seed) in
/// between, which the session would answer from its memo?
fn entities_samples_are_cold(requests: &[Request]) -> bool {
    let mut ordered: Vec<&Request> = requests.iter().collect();
    ordered.sort_by_key(|r| r.start);
    let mut memo_filled = false;
    for r in ordered {
        match r.class {
            Class::Ingest | Class::Seed => memo_filled = false,
            Class::Entities if memo_filled => return false,
            Class::Entities | Class::EntitiesMemo => memo_filled = true,
            Class::Query | Class::Partition => {}
        }
    }
    true
}

/// The daemon phase: re-seed the session with the first half (untimed),
/// then W lock-step blocks. In a block the writer posts one ingest batch
/// of the second half while the reader issues `reads_per_block` queries
/// — enough of them to outlast the writer's request parse, so one query
/// always meets the ingest's write lock and waits it out. Every
/// `heavy_every`-th block the reader then closes the block with one heavy
/// read, issued once the block's ingest is acknowledged: it follows the
/// invalidation by construction, never races it. (With the heavy read
/// inside the query stream, whether it or the ingest took the session
/// lock first was a coin toss per block, and `serve_write_s` of one
/// commit ranged 0.32–0.64 s.) A block ends when both sides are done.
/// Closed loop, two keep-alive connections.
/// Returns `(serve_read_s, serve_write_s, requests)`.
fn serve_phase(
    setup: &Setup,
    w: &Workload,
    library: &DedupResult,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> (f64, f64, Vec<Request>) {
    let daemon = setup.daemon.as_ref().expect("daemon runs until drop");
    let client = Client::new(daemon.addr());
    let corpus = &setup.corpus;
    // Dialled before anything is timed; `request` dials again after a
    // failure.
    let mut control = client.keep_alive().ok();
    let mut requests = Vec::new();

    let (seed, ok, _) = request(
        &client,
        &mut control,
        Class::Seed,
        "POST",
        "/sessions/bench/dedup",
        corpus.seed_body.as_bytes(),
    );
    ops.check("POST dedup (re-seed) → 200", ok);
    tracer.add(seed.class.span_name(), seed.start, seed.end);
    requests.push(seed);

    let resident = corpus.seeded_rows();
    let barrier = Barrier::new(2);
    let (phase, _) = tracer.time("serve.blocks", |t| {
        let (writes, reads) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut conn = client.keep_alive().ok();
                let mut out = Vec::with_capacity(corpus.write_bodies.len());
                for body in &corpus.write_bodies {
                    barrier.wait(); // block start
                    let (req, ok, _) = request(
                        &client,
                        &mut conn,
                        Class::Ingest,
                        "POST",
                        "/sessions/bench/ingest",
                        body.as_bytes(),
                    );
                    out.push((req, ok));
                    barrier.wait(); // ingest acknowledged
                }
                out
            });
            let reader = s.spawn(|| {
                let mut conn = client.keep_alive().ok();
                let mut out = Vec::with_capacity(w.blocks * (w.reads_per_block + 1));
                let (mut n, mut heavy) = (setup.read_offset, 0);
                for block in 1..=w.blocks {
                    barrier.wait(); // block start
                    for _ in 0..w.reads_per_block {
                        n += 1;
                        let path = query_path(n, resident);
                        let (req, ok, _) =
                            request(&client, &mut conn, Class::Query, "GET", &path, b"");
                        out.push((req, ok));
                    }
                    barrier.wait(); // ingest acknowledged
                    if block.is_multiple_of(w.heavy_every) {
                        heavy += 1;
                        let (class, path) = heavy_read(heavy);
                        let (req, ok, _) = request(&client, &mut conn, class, "GET", path, b"");
                        out.push((req, ok));
                    }
                }
                out
            });
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });
        // The request threads' spans become children of this one.
        for (req, _) in writes.iter().chain(&reads) {
            t.add(req.class.span_name(), req.start, req.end);
        }
        (writes, reads)
    });
    let (writes, reads) = phase;
    let write_s: f64 = writes.iter().map(|(r, _)| r.secs()).sum();
    let read_s: f64 = reads.iter().map(|(r, _)| r.secs()).sum();
    for (req, ok) in writes.into_iter().chain(reads) {
        ops.check("daemon request → 200", ok);
        requests.push(req);
    }
    ops.check(
        "every entities sample follows an ingest (none is a memo hit)",
        entities_samples_are_cold(&requests),
    );

    // Untimed tail, no ingest in flight. The first `entities` fills the
    // session's memo if the last block did not end on one (dropped: it
    // is cold on some workloads and memoized on others); the second is a
    // memo hit by construction and the only `EntitiesMemo` sample. Then
    // the partition body against the library session, and a snapshot so
    // the daemon's journal is compacted before the next round.
    let (_, ok, _) = request(&client, &mut control, Class::Seed, "GET", ENTITIES, b"");
    ops.check("GET entities → 200", ok);
    let (memo, ok, _) = request(
        &client,
        &mut control,
        Class::EntitiesMemo,
        "GET",
        ENTITIES,
        b"",
    );
    ops.check("GET entities (memoized) → 200", ok);
    tracer.add(memo.class.span_name(), memo.start, memo.end);
    requests.push(memo);
    let (_, ok, body) = request(
        &client,
        &mut control,
        Class::Partition,
        "GET",
        PARTITION,
        b"",
    );
    ops.check(
        "HTTP partition body ≡ library session result",
        ok && partition_matches(&body, library),
    );
    let (_, ok, _) = request(
        &client,
        &mut control,
        Class::Seed,
        "POST",
        "/sessions/bench/snapshot",
        b"",
    );
    ops.check("POST snapshot → 200", ok);

    (read_s, write_s, requests)
}

/// Execute the whole journey once.
pub fn round(
    setup: &Setup,
    w: &Workload,
    reps: Reps,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> RoundSample {
    let sources = setup.corpus.source_refs();
    let mut host = vec![probe_s()];

    let (bounded, dedup_bounded_s) = repeated(tracer, "dedup_bounded", reps.dedup_bounded, || {
        setup.bounded.run(&sources).expect("bounded pipeline run")
    });
    host.push(probe_s());
    let (exact, dedup_exact_s) = repeated(tracer, "dedup_exact", reps.dedup_exact, || {
        setup.exact.run(&sources).expect("exact pipeline run")
    });
    ops.check(
        "bounded classes ≡ exact classes, pair by pair",
        bounded.decisions.len() == exact.decisions.len()
            && bounded
                .decisions
                .iter()
                .zip(&exact.decisions)
                .all(|(b, e)| b.pair == e.pair && b.class == e.class),
    );

    host.push(probe_s());
    let (_, entities_s) = repeated(tracer, "entities", reps.entities, || {
        bounded.resolve_entities(ClusterStrategy::CorrelationRepaired)
    });

    host.push(probe_s());
    let mut ingest_s = 0.0;
    let mut streamed = None;
    for _ in 0..reps.ingest {
        drop(streamed.take()); // one resident streamed session at a time
        let dir = scratch.dir("stream");
        let (s, _) = tracer.time("ingest", |t| stream_ingest(setup, w, &dir, t, ops));
        ingest_s += s.secs() / reps.ingest as f64;
        streamed = Some(s);
    }
    let streamed = streamed.expect("at least one ingest repetition");
    let library = streamed.session.result();
    ops.check(
        "streamed-session partition ≡ one-shot partition",
        library.clusters == bounded.clusters
            && classes(&library.decisions) == classes(&bounded.decisions),
    );

    host.push(probe_s());
    let mut recover_s = 0.0;
    for _ in 0..reps.recover {
        recover_s +=
            recover(setup, &streamed, &library.clusters, tracer, ops) / reps.recover as f64;
    }

    host.push(probe_s());
    let (mut serve_read_s, mut serve_write_s, mut requests) = (0.0, 0.0, Vec::new());
    for _ in 0..reps.serve {
        let ((read_s, write_s, reqs), _) =
            tracer.time("serve", |t| serve_phase(setup, w, &library, t, ops));
        serve_read_s += read_s / reps.serve as f64;
        serve_write_s += write_s / reps.serve as f64;
        requests.extend(reqs);
    }

    host.push(probe_s());
    let f1 = pairwise_f1(&bounded, &setup.corpus.truth.true_pairs()).f1;
    ops.check(
        "pairwise_f1 ≥ the workload's frozen value − 0.005",
        f1 >= w.f1_frozen - F1_TOLERANCE,
    );
    let counts = Counts {
        candidates: bounded.candidates,
        decisions: bounded.decisions.len(),
        matches: bounded.matches().count(),
        wal_bytes: streamed.wal_bytes,
        pairwise_f1: f1,
    };
    tracer.count("reduction.candidates", counts.candidates as f64);
    tracer.count("core.wal.bytes", counts.wal_bytes as f64);

    RoundSample {
        dedup_bounded_s,
        dedup_exact_s,
        entities_s,
        ingest_s,
        recover_s,
        serve_read_s,
        serve_write_s,
        counts,
        host,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_rotate_over_distinct_resident_rows() {
        let resident = 37;
        let mut seen = std::collections::HashSet::new();
        for n in 1..=400 {
            let path = query_path(n, resident);
            let q = path.split_once('?').expect("query string").1;
            let rows: Vec<usize> = q
                .split('&')
                .map(|kv| kv[2..].parse().expect("row index"))
                .collect();
            assert!(rows[0] < resident && rows[1] < resident && rows[0] != rows[1]);
            seen.insert((rows[0], rows[1]));
        }
        assert!(seen.len() > 200, "the rotation revisits few pairs");
    }

    #[test]
    fn a_dead_daemon_fails_requests_instead_of_panicking() {
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a loopback port"); // the listener is dropped: nobody listens
        let client = Client::new(addr);
        let mut conn = None;
        for _ in 0..2 {
            let (_, ok, _) = request(&client, &mut conn, Class::Query, "GET", "/health", b"");
            assert!(!ok && conn.is_none());
        }
    }

    #[test]
    fn an_entities_sample_after_another_with_no_ingest_between_is_caught() {
        let t0 = Instant::now();
        let at = |class, ms: u64| Request {
            class,
            start: t0 + std::time::Duration::from_millis(ms),
            end: t0 + std::time::Duration::from_millis(ms + 1),
        };
        // seed, ingest, entities, ingest, entities, then the tail's memo hit.
        let good = [
            at(Class::Seed, 0),
            at(Class::Ingest, 10),
            at(Class::Query, 11),
            at(Class::Entities, 20),
            at(Class::Ingest, 30),
            at(Class::Partition, 35),
            at(Class::Entities, 40),
            at(Class::EntitiesMemo, 50),
        ];
        assert!(entities_samples_are_cold(&good));
        // Given out of order (writer's requests first), still judged by time.
        let mut shuffled = good;
        shuffled.swap(1, 6);
        assert!(entities_samples_are_cold(&shuffled));
        // The defect: the last block ends on `entities` and the tail
        // records another one as cold.
        let bad = [
            at(Class::Seed, 0),
            at(Class::Ingest, 10),
            at(Class::Entities, 20),
            at(Class::Entities, 30),
        ];
        assert!(!entities_samples_are_cold(&bad));
        let after_memo = [at(Class::EntitiesMemo, 0), at(Class::Entities, 10)];
        assert!(!entities_samples_are_cold(&after_memo));
    }

    #[test]
    fn heavy_reads_are_four_partitions_to_one_entities() {
        let classes: Vec<Class> = (1..=10).map(|n| heavy_read(n).0).collect();
        assert_eq!(classes.iter().filter(|&&c| c == Class::Entities).count(), 2);
        assert_eq!(classes[4], Class::Entities);
        assert_eq!(classes[0], Class::Partition);
    }
}

//! End-to-end tests of the serving front door: an in-process daemon on
//! an ephemeral loopback port, driven through the real HTTP client.
//!
//! The contracts under test:
//! * endpoint responses equal what the library (`DedupSession`) computes
//!   over the same corpus;
//! * a daemon restarted over its autosaved snapshots reports the
//!   identical partition with **zero** key renders since open (the warm
//!   restart certificate);
//! * concurrent readers during an ingest observe either the pre- or the
//!   post-ingest partition (or entity resolution), never a torn one, and
//!   the final merged result equals a serial one-shot run;
//! * an entity read leaves no trace in what `snapshot` persists, and
//!   concurrent saves of one session never collide on the staging file.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use probdedup_core::pipeline::{DedupPipeline, DedupResult, Defaults, ReductionStrategy};
use probdedup_core::session::DedupSession;
use probdedup_datagen::{generate, DatasetConfig, Dictionaries};
use probdedup_entity::{ClusterStrategy, ResolveEntities};
use probdedup_model::format::write_xrelation;
use probdedup_model::relation::XRelation;
use probdedup_reduction::WorldSelection;
use probdedup_serve::client::{json_field, Client};
use probdedup_serve::server::{RunningServer, ServeConfig, Server};

/// Two small sources with overlapping entities (people schema, arity 4).
fn sources() -> Vec<XRelation> {
    let cfg = DatasetConfig {
        entities: 40,
        sources: 2,
        seed: 20100301,
        ..DatasetConfig::default()
    };
    generate(&Dictionaries::people(), &cfg).relations
}

fn boot(config: ServeConfig) -> (RunningServer, Client) {
    let running = Server::bind(config).expect("bind").spawn();
    let client = Client::new(running.addr());
    (running, client)
}

/// The default pipeline over the people schema.
fn pipeline() -> DedupPipeline {
    Defaults::for_arity(4).builder().build()
}

fn config() -> ServeConfig {
    ServeConfig::new("127.0.0.1:0", pipeline())
}

/// The `"clusters": [...]` token of a partition/dedup response body.
fn clusters_of(body: &str) -> String {
    let at = body.find("\"clusters\":").expect("clusters field");
    let start = body[at..].find('[').unwrap() + at;
    let mut depth = 0usize;
    for (i, c) in body[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return body[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unterminated clusters array in {body}");
}

/// A `partition?full=1` body without its trailing decision list — which
/// must be exactly the plain `partition` body.
fn without_decisions(full: &str) -> String {
    let at = full.find(", \"decisions\": [").expect("decisions field");
    format!("{}}}\n", &full[..at])
}

/// Assert that a partition body describes the library's merged view,
/// field by field.
fn assert_partition_body(body: &str, expected: &DedupResult) {
    let field = |key: &str| json_field(body, key);
    assert_eq!(field("rows"), Some(expected.relation.len().to_string()));
    assert_eq!(field("candidates"), Some(expected.candidates.to_string()));
    assert_eq!(
        field("matches"),
        Some(expected.matches().count().to_string())
    );
    assert_eq!(
        field("possible"),
        Some(expected.possible_matches().count().to_string())
    );
    assert_eq!(clusters_of(body), clusters_json(&expected.clusters));
    assert_eq!(field("summary"), Some(expected.summary()));
}

/// Render library clusters in the daemon's JSON shape.
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

#[test]
fn health_sessions_and_unknown_routes() {
    let (running, client) = boot(config());

    let (status, body) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "status").as_deref(), Some("ok"));
    assert_eq!(json_field(&body, "sessions").as_deref(), Some("0"));

    let (status, _) = client.get("/no-such").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.post("/health", b"").unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(status, 404, "read endpoints never create sessions");
    let (status, body) = client.get("/sessions/..%2Fevil/partition").unwrap();
    assert_eq!(status, 400, "bad session name must be rejected: {body}");
    let (status, _) = client
        .post("/sessions/census/ingest", b"not a relation")
        .unwrap();
    assert_eq!(status, 400);

    let summary = running.shutdown().unwrap();
    assert_eq!(summary.requests, 6);
}

#[test]
fn endpoints_match_the_library_session() {
    let srcs = sources();
    let (running, client) = boot(config());

    // Drive the daemon — ingest both sources into one named session — and
    // the library ground truth over the same pipeline and corpus. After
    // each ingest the plain `partition` (read off the decision memo) is
    // `?full=1` (read off `result()`) minus its decisions, and both
    // describe the library's merged view.
    let mut session = pipeline().session();
    for (i, src) in srcs.iter().enumerate() {
        let (status, body) = client
            .post("/sessions/census/ingest", write_xrelation(src).as_bytes())
            .unwrap();
        assert_eq!(status, 200, "ingest {i}: {body}");
        assert_eq!(
            json_field(&body, "rows_added").as_deref(),
            Some(src.len().to_string().as_str())
        );
        session.ingest(src).unwrap();
        let expected = session.result();

        let (status, plain) = client.get("/sessions/census/partition").unwrap();
        assert_eq!(status, 200);
        let (status, full) = client.get("/sessions/census/partition?full=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(plain, without_decisions(&full), "ingest {i}");
        assert_partition_body(&plain, &expected);
        assert_eq!(
            full.matches("\"i\": ").count(),
            expected.decisions.len(),
            "ingest {i}: ?full=1 lists every decision"
        );
    }
    let expected = session.result();

    // Query endpoint ≡ classify_pair, including a non-candidate pair
    // classified on the spot through the read path.
    let mut checked = 0;
    for d in expected.decisions.iter().take(5) {
        let (status, body) = client
            .get(&format!(
                "/sessions/census/query?i={}&j={}",
                d.pair.0, d.pair.1
            ))
            .unwrap();
        assert_eq!(status, 200);
        let class = json_field(&body, "class").unwrap();
        let lib = session.classify_pair(d.pair.0, d.pair.1).unwrap();
        assert_eq!(lib.pair, d.pair);
        let lib_class = format!("{}", lib.class);
        let want = match lib_class.as_str() {
            "m" => "match",
            "p" => "possible",
            _ => "non-match",
        };
        assert_eq!(class, want, "pair {:?}", d.pair);
        checked += 1;
    }
    assert!(checked > 0, "dataset produced no decisions to check");

    let (status, body) = client.get("/sessions/census/query?i=0&j=0").unwrap();
    assert_eq!(status, 400, "i == j is not a pair: {body}");
    assert!(
        json_field(&body, "error").is_some_and(|e| e.contains("a row is not a pair with itself")),
        "{body}"
    );
    let (status, body) = client.get("/sessions/census/query?i=0&j=999999").unwrap();
    assert_eq!(status, 400);
    assert!(
        json_field(&body, "error").is_some_and(|e| e.contains("out of range")),
        "{body}"
    );

    // /stats sees the session and the classified pairs.
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_field(&body, "decided_pairs").as_deref(),
        Some(session.candidate_count().to_string().as_str())
    );
    assert_eq!(json_field(&body, "requests_ingest").as_deref(), Some("2"));
    assert!(
        json_field(&body, "pairs_classified")
            .unwrap()
            .parse::<u64>()
            .unwrap()
            > 0
    );

    running.shutdown().unwrap();
}

#[test]
fn restart_from_autosaved_snapshots_is_warm() {
    let srcs = sources();
    let dir = std::env::temp_dir().join(format!("probdedup-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: ingest everything, autosave via graceful shutdown.
    let (running, client) = boot(config().snapshot_dir(&dir));
    for src in &srcs {
        let (status, _) = client
            .post("/sessions/census/ingest", write_xrelation(src).as_bytes())
            .unwrap();
        assert_eq!(status, 200);
    }
    let (_, first_partition) = client.get("/sessions/census/partition").unwrap();
    let summary = running.shutdown().unwrap();
    assert_eq!(summary.sessions_saved, 1);
    assert!(dir.join("census.snap").is_file());

    // Second life: boot over the same directory — the session must come
    // back by name with the identical partition.
    let (running, client) = boot(config().snapshot_dir(&dir));
    let (status, body) = client.get("/sessions").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "name").as_deref(), Some("census"));
    assert_eq!(json_field(&body, "restored").as_deref(), Some("true"));

    let (status, body) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(status, 200);
    assert_eq!(clusters_of(&body), clusters_of(&first_partition));

    // Re-running the full corpus through the warm session renders zero
    // keys: open rebuilt the pools from the stored relation before the
    // stats baseline was taken.
    let mut combined = XRelation::new(srcs[0].schema().clone());
    for src in &srcs {
        for t in src.xtuples() {
            combined.push(t.clone());
        }
    }
    let (status, body) = client
        .post(
            "/sessions/census/dedup",
            write_xrelation(&combined).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200, "warm dedup: {body}");
    assert_eq!(clusters_of(&body), clusters_of(&first_partition));

    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_field(&body, "key_renders_since_open").as_deref(),
        Some("0"),
        "warm restart must not re-render keys: {body}"
    );

    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_fails_boot_loudly() {
    let dir = std::env::temp_dir().join(format!("probdedup-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("bad.snap"), b"PXDSNAP\0garbage").unwrap();
    let err = Server::bind(config().snapshot_dir(&dir)).err();
    assert!(
        matches!(err, Some(probdedup_serve::ServeError::Snapshot(_, _))),
        "boot over a corrupt snapshot must fail, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interval_autosave_persists_without_shutdown() {
    let srcs = sources();
    let dir = std::env::temp_dir().join(format!("probdedup-serve-autosave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (running, client) = boot(
        config()
            .snapshot_dir(&dir)
            .autosave_interval(Duration::from_millis(150)),
    );
    client
        .post(
            "/sessions/census/ingest",
            write_xrelation(&srcs[0]).as_bytes(),
        )
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !dir.join("census.snap").is_file() {
        assert!(
            std::time::Instant::now() < deadline,
            "interval autosave never wrote census.snap"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, body) = client.get("/stats").unwrap();
    assert!(
        json_field(&body, "autosaves")
            .unwrap()
            .parse::<u64>()
            .unwrap()
            >= 1,
        "stats must count autosaves: {body}"
    );
    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail the test rather than hang it when `handle` is still running at
/// `deadline` — a lock-order deadlock must fail CI, not time it out.
fn join_by<T>(handle: std::thread::JoinHandle<T>, deadline: Instant, what: &str) -> T {
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what} still running at the deadline (a lock-order deadlock?)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().unwrap()
}

/// Satellite: reader threads hammer every read endpoint — `partition`,
/// `partition?full=1`, `entities` and `query` (on resident pairs and on a
/// pair the ingest creates) — and one thread loops `POST snapshot`, while
/// one `ingest` runs. Every observed read, byte for byte, must be the
/// pre-ingest or the post-ingest one (an ingest publishes in one short
/// write-locked step), every save answers 200 with the pre- or
/// post-ingest row count, the entity bodies are the library's resolution
/// of the pre- and the post-ingest corpus, and the final merged result
/// equals a serial one-shot run. Every thread is joined under a deadline.
#[test]
fn concurrent_readers_observe_pre_or_post_ingest_only() {
    race_readers_against_an_ingest(pipeline(), "snm");
}

/// The same race under multi-pass blocking over the top-4 worlds, whose
/// ingest regenerates the candidates over every row: the ordered read
/// (`partition?full=1`) regenerates over the published rows while the
/// warm key table already covers the batch in flight.
#[test]
fn concurrent_readers_observe_pre_or_post_multipass_ingest_only() {
    let d = Defaults::for_arity(4);
    let reduction = ReductionStrategy::BlockingMultipass {
        spec: d.key.clone(),
        selection: WorldSelection::TopK(4),
    };
    race_readers_against_an_ingest(d.builder().reduction(reduction).build(), "worlds");
}

/// The body of the reader race, over a daemon running `pipeline`.
fn race_readers_against_an_ingest(pipeline: DedupPipeline, tag: &str) {
    const ENTITIES: &str = "/sessions/census/entities?strategy=correlation-repaired";
    const FULL: &str = "/sessions/census/partition?full=1";
    let srcs = sources();
    let dir = std::env::temp_dir().join(format!(
        "probdedup-serve-readers-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::new("127.0.0.1:0", pipeline.clone());
    let (running, client) = boot(config.snapshot_dir(&dir));
    let mut library = pipeline.session();
    let (pre_rows, post_rows) = (srcs[0].len(), srcs[0].len() + srcs[1].len());
    // Resident pairs, and one that exists only after the second ingest.
    let queries: Vec<String> = [(0, 1), (2, pre_rows - 1), (1, pre_rows)]
        .iter()
        .map(|(i, j)| format!("/sessions/census/query?i={i}&j={j}"))
        .collect();
    // Every read endpoint's answer once the daemon has ingested `src`,
    // which the library then ingests too: the daemon's partition and
    // entity bodies must be the library's.
    let mut reads_after = |src: &XRelation| {
        library.ingest(src).unwrap();
        let (_, partition) = client.get("/sessions/census/partition").unwrap();
        assert_partition_body(&partition, &library.result());
        let (_, entities) = client.get(ENTITIES).unwrap();
        let expected = library.resolve_entities(ClusterStrategy::CorrelationRepaired);
        assert_eq!(clusters_of(&entities), clusters_json(&expected.clusters));
        let mut reads = vec![partition, entities, client.get(FULL).unwrap().1];
        for q in &queries {
            let (status, body) = client.get(q).unwrap();
            reads.push(format!("{status} {body}"));
        }
        reads
    };
    let addr = running.addr();
    post_ingest_to(addr, &srcs[0]);
    let pre = reads_after(&srcs[0]);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..8)
        .map(|reader| {
            let stop = stop.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let client = Client::new(addr);
                // Per endpoint, as in `reads_after`: partition, entities,
                // partition?full=1, then one slot per query.
                let mut seen: Vec<Vec<String>> = vec![Vec::new(); 3 + queries.len()];
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, body) = client.get("/sessions/census/partition").unwrap();
                    assert_eq!(status, 200);
                    seen[0].push(body);
                    match reader % 4 {
                        0 => seen[1].push(client.get(ENTITIES).unwrap().1),
                        1 => seen[2].push(client.get(FULL).unwrap().1),
                        2 => {
                            for (k, q) in queries.iter().enumerate() {
                                let (status, body) = client.get(q).unwrap();
                                seen[3 + k].push(format!("{status} {body}"));
                            }
                        }
                        _ => {}
                    }
                }
                seen
            })
        })
        .collect();
    let saver = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let client = Client::new(addr);
            let mut rows = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = client.post("/sessions/census/snapshot", b"").unwrap();
                assert_eq!(status, 200, "{body}");
                rows.push(json_field(&body, "rows").unwrap());
            }
            rows
        })
    };

    // Let the readers spin up, then ingest the second source.
    std::thread::sleep(Duration::from_millis(30));
    let deadline = Instant::now() + Duration::from_secs(60);
    let batch = srcs[1].clone();
    join_by(
        std::thread::spawn(move || post_ingest_to(addr, &batch)),
        deadline,
        "the ingest",
    );
    let post = reads_after(&srcs[1]);
    assert_ne!(pre[1], post[1], "the ingest must change the entities");
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut observations = vec![0usize; pre.len()];
    for r in readers {
        for (k, bodies) in join_by(r, deadline, "a reader").into_iter().enumerate() {
            for seen in bodies {
                assert!(
                    seen == pre[k] || seen == post[k],
                    "torn read observed:\n  seen {seen}\n  pre  {}\n  post {}",
                    pre[k],
                    post[k]
                );
                observations[k] += 1;
            }
        }
    }
    assert!(
        observations.iter().all(|&n| n > 0),
        "some read endpoint was never observed: {observations:?}"
    );
    let saved = join_by(saver, deadline, "the saver");
    assert!(!saved.is_empty(), "the saver never saved");
    for rows in saved {
        assert!(
            rows == pre_rows.to_string() || rows == post_rows.to_string(),
            "a save wrote {rows} rows"
        );
    }

    // Split-invariance through the front door: the merged result equals
    // a serial one-shot run over both sources.
    let expected = pipeline.run(&srcs.iter().collect::<Vec<_>>()).unwrap();
    assert_partition_body(&post[0], &expected);

    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingest `src` into session `census` of the daemon at `addr`.
fn post_ingest_to(addr: std::net::SocketAddr, src: &XRelation) {
    let (status, body) = Client::new(addr)
        .post("/sessions/census/ingest", write_xrelation(src).as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{body}");
}

/// Saves run under the session *read* lock and stage into one fixed
/// `<path>.tmp`, so two saves of one session must be serialised per
/// session or they truncate each other's staging file (the loser's rename
/// fails; `NAME.snap` can hold a partial file meanwhile). Four clients ×
/// 200 `POST snapshot`, then one client × 200 racing the autosaver at a
/// 10 ms interval: every answer is a 200 and the file left behind opens.
#[test]
fn concurrent_saves_of_one_session_never_collide() {
    let srcs = sources();
    for (posters, autosave) in [(4, None), (1, Some(Duration::from_millis(10)))] {
        let dir = std::env::temp_dir().join(format!(
            "probdedup-serve-saves-{posters}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = config().snapshot_dir(&dir);
        if let Some(interval) = autosave {
            config = config.autosave_interval(interval);
        }
        let (running, client) = boot(config);
        let (status, _) = client
            .post(
                "/sessions/census/ingest",
                write_xrelation(&srcs[0]).as_bytes(),
            )
            .unwrap();
        assert_eq!(status, 200);

        let addr = running.addr();
        let start = Arc::new(Barrier::new(posters));
        let hammers: Vec<_> = (0..posters)
            .map(|_| {
                let start = start.clone();
                std::thread::spawn(move || {
                    let client = Client::new(addr);
                    start.wait();
                    for i in 0..200 {
                        let (status, body) = client.post("/sessions/census/snapshot", b"").unwrap();
                        assert_eq!(status, 200, "save {i}: {body}");
                    }
                })
            })
            .collect();
        for h in hammers {
            h.join().expect("every concurrent save answers 200");
        }
        if autosave.is_some() {
            let (_, stats) = client.get("/stats").unwrap();
            let sweeps: u64 = json_field(&stats, "autosaves").unwrap().parse().unwrap();
            assert!(sweeps > 0, "the autosaver never raced the posts: {stats}");
        }
        running.shutdown().unwrap();

        let reopened = DedupSession::open(dir.join("census.snap"), &pipeline())
            .expect("the snapshot left behind opens");
        assert_eq!(reopened.rows(), srcs[0].len());
        assert!(
            !dir.join("census.snap.tmp").exists(),
            "staging file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The decision memo is the candidate set, seen through the front door:
/// after every ingest `/stats` reports exactly one decided pair per
/// candidate (the second batch slides SNM windows past pairs of the
/// first, and their decisions leave with them), and there is no memo
/// eviction counter because nothing is evicted.
#[test]
fn stats_report_one_decided_pair_per_candidate() {
    let (running, client) = boot(config());
    for src in &sources() {
        let (status, body) = client
            .post("/sessions/census/ingest", write_xrelation(src).as_bytes())
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let (_, stats) = client.get("/stats").unwrap();
        let candidates = json_field(&stats, "candidates").unwrap();
        assert_ne!(candidates, "0", "{stats}");
        assert_eq!(
            json_field(&stats, "decided_pairs"),
            Some(candidates),
            "{stats}"
        );
        assert!(!stats.contains("memo_evictions"), "{stats}");
    }
    running.shutdown().unwrap();
}

/// Flat copy of every file in `from` into `to` (the test's stand-in for
/// what a `kill -9` leaves on disk: the durable bytes at this instant).
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Tentpole: a crash after an acknowledged ingest loses nothing. The
/// second batch lives only in the journal (the snapshot predates it);
/// a daemon booted over a copy of the durable state taken *while the
/// first daemon still runs* — exactly a `kill -9` image — must serve the
/// identical partition, with the replay visible in `/stats`.
#[test]
fn wal_recovery_equals_the_pre_crash_partition() {
    let srcs = sources();
    let base = std::env::temp_dir().join(format!("probdedup-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let snap_a = base.join("a-snap");
    let wal_a = base.join("a-wal");

    // First life: snapshot after the first ingest (compacting the
    // journal), then a second ingest that exists ONLY in the journal.
    let (running, client) = boot(config().snapshot_dir(&snap_a).wal_dir(&wal_a));
    let (status, _) = client
        .post(
            "/sessions/census/ingest",
            write_xrelation(&srcs[0]).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.post("/sessions/census/snapshot", b"").unwrap();
    assert_eq!(status, 200);
    let (status, _) = client
        .post(
            "/sessions/census/ingest",
            write_xrelation(&srcs[1]).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.get("/sessions/census/partition").unwrap();
    let expected = clusters_of(&body);

    let snap_b = base.join("b-snap");
    let wal_b = base.join("b-wal");
    copy_dir(&snap_a, &snap_b);
    copy_dir(&wal_a, &wal_b);

    // Second life over the crash image.
    let (running2, client2) = boot(config().snapshot_dir(&snap_b).wal_dir(&wal_b));
    let (status, body) = client2.get("/sessions").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "restored").as_deref(), Some("true"));
    let (status, body) = client2.get("/sessions/census/partition").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        clusters_of(&body),
        expected,
        "recovery lost a committed ingest"
    );
    let (_, stats) = client2.get("/stats").unwrap();
    let replayed: u64 = json_field(&stats, "wal_replayed_records")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        replayed > 0,
        "the un-snapshotted batch must come back from the journal: {stats}"
    );
    assert_eq!(
        json_field(&stats, "journal_replayed_records").as_deref(),
        Some(replayed.to_string().as_str()),
        "the ops alias must track wal_replayed_records"
    );

    running2.shutdown().unwrap();
    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

/// A one-attribute daemon keys on that attribute alone. The default key
/// once named attribute 1 whatever the arity: the first ingest panicked
/// *after* it was journaled, so every restart replayed the poison record
/// and died at boot. Ingest, stop, restart over the same journal: the
/// batch replays and the partition is the one served before.
#[test]
fn one_attribute_daemon_replays_its_journal() {
    let wal = std::env::temp_dir().join(format!("probdedup-serve-arity1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let config =
        || ServeConfig::new("127.0.0.1:0", Defaults::for_arity(1).builder().build()).wal_dir(&wal);
    let batch = "schema name:text\nxtuple\n  alt 1 | Johnathan\n\
                 xtuple\n  alt 0.9 | Johnathan\nxtuple\n  alt 1 | Tim\n";

    let (running, client) = boot(config());
    let (status, body) = client.post("/sessions/a/ingest", batch.as_bytes()).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client.get("/sessions/a/partition").unwrap();
    assert_eq!(status, 200, "{body}");
    let expected = clusters_of(&body);
    assert_eq!(expected, "[[0, 1]]");
    running.shutdown().unwrap();

    let (running, client) = boot(config());
    let (status, body) = client.get("/sessions/a/partition").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(clusters_of(&body), expected);
    let (_, stats) = client.get("/stats").unwrap();
    assert_eq!(
        json_field(&stats, "wal_replayed_records").as_deref(),
        Some("1"),
        "{stats}"
    );
    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&wal);
}

/// Tentpole: past `--max-inflight` the daemon sheds with 503 instead of
/// queueing, the bound is never exceeded (`inflight_peak`), and the ops
/// surface stays reachable throughout.
#[test]
fn overload_sheds_with_503_and_bounded_inflight() {
    let srcs = sources();
    let (running, client) = boot(config().max_inflight(1).debug_endpoints(true));
    let (status, _) = client
        .post(
            "/sessions/census/ingest",
            write_xrelation(&srcs[0]).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200);

    // One slow request occupies the only slot...
    let addr = running.addr();
    let sleeper = std::thread::spawn(move || {
        let client = Client::new(addr);
        client.get("/sessions/census/debug-sleep?ms=2000").unwrap()
    });
    std::thread::sleep(Duration::from_millis(300));

    // ...so a concurrent session request is shed, while /health and
    // /stats (exempt from the gate) keep answering.
    let (status, body) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(
        status, 503,
        "the gate must shed past --max-inflight 1: {body}"
    );
    let (status, _) = client.get("/health").unwrap();
    assert_eq!(status, 200, "/health must survive overload");
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200, "/stats must survive overload");
    assert!(
        json_field(&stats, "requests_shed")
            .unwrap()
            .parse::<u64>()
            .unwrap()
            >= 1,
        "shedding must be counted: {stats}"
    );
    assert_eq!(
        json_field(&stats, "inflight_peak").as_deref(),
        Some("1"),
        "the in-flight bound was exceeded: {stats}"
    );

    let (status, _) = sleeper.join().unwrap();
    assert_eq!(status, 200);
    // Slot released: the same request now passes.
    let (status, _) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(status, 200);
    running.shutdown().unwrap();
}

/// Tentpole: a handler panic becomes a 500, the process keeps serving,
/// only the touched session is quarantined (503 + `/health` degraded),
/// and a restart replays the quarantined session back from its journal.
#[test]
fn panic_is_contained_and_the_session_quarantined() {
    let srcs = sources();
    let base = std::env::temp_dir().join(format!("probdedup-serve-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal = base.join("wal");

    let (running, client) = boot(config().wal_dir(&wal).debug_endpoints(true));
    for (name, src) in [("census", &srcs[0]), ("other", &srcs[1])] {
        let (status, _) = client
            .post(
                &format!("/sessions/{name}/ingest"),
                write_xrelation(src).as_bytes(),
            )
            .unwrap();
        assert_eq!(status, 200);
    }
    let (_, body) = client.get("/sessions/census/partition").unwrap();
    let expected = clusters_of(&body);

    let (status, body) = client.post("/sessions/census/debug-panic", b"").unwrap();
    assert_eq!(
        status, 500,
        "a panic must become a 500, not a dead daemon: {body}"
    );

    let (status, _) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(status, 503, "the poisoned session must quarantine");
    let (status, _) = client.get("/sessions/other/partition").unwrap();
    assert_eq!(status, 200, "the neighbor session must be unaffected");
    let (status, health) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_field(&health, "status").as_deref(), Some("degraded"));
    let (_, stats) = client.get("/stats").unwrap();
    assert_eq!(json_field(&stats, "panics_caught").as_deref(), Some("1"));
    assert_eq!(
        json_field(&stats, "sessions_degraded").as_deref(),
        Some("1")
    );
    running.shutdown().unwrap();

    // Restart: the quarantined session comes back from its journal (the
    // ingest was fsynced before the mutation the panic interrupted).
    let (running, client) = boot(config().wal_dir(&wal).debug_endpoints(true));
    let (status, body) = client.get("/sessions/census/partition").unwrap();
    assert_eq!(
        status, 200,
        "restart must recover the degraded session: {body}"
    );
    assert_eq!(clusters_of(&body), expected);
    let (status, health) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_field(&health, "status").as_deref(), Some("ok"));
    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

/// Entity resolution through the front door: the endpoint equals the
/// library resolution for every strategy, rejects unknown strategies,
/// leaves no trace in what `snapshot` persists, and a restart over the
/// autosaved snapshot answers byte-for-byte the same — the snapshot holds
/// the decisions and the clustering is a deterministic function of them.
#[test]
fn entities_endpoint_matches_library_and_survives_restart() {
    let srcs = sources();
    let dir = std::env::temp_dir().join(format!("probdedup-serve-entities-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (running, client) = boot(config().snapshot_dir(&dir));
    for src in &srcs {
        let (status, _) = client
            .post("/sessions/census/ingest", write_xrelation(src).as_bytes())
            .unwrap();
        assert_eq!(status, 200);
    }

    // The library ground truth over the same pipeline and corpus.
    let mut session = pipeline().session();
    for src in &srcs {
        session.ingest(src).unwrap();
    }

    let saved_bytes = || {
        let (status, body) = client.post("/sessions/census/snapshot", b"").unwrap();
        assert_eq!(status, 200, "{body}");
        std::fs::read(dir.join("census.snap")).unwrap()
    };
    let saved_before_reads = saved_bytes();

    let mut first_bodies = Vec::new();
    for strategy in ClusterStrategy::ALL {
        let (status, body) = client
            .get(&format!(
                "/sessions/census/entities?strategy={}",
                strategy.name()
            ))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let expected = session.resolve_entities(strategy);
        assert_eq!(clusters_of(&body), clusters_json(&expected.clusters));
        assert_eq!(
            json_field(&body, "entities").as_deref(),
            Some(expected.stats.entities.to_string().as_str())
        );
        assert_eq!(
            json_field(&body, "repair_moves").as_deref(),
            Some(expected.stats.repair_moves.to_string().as_str())
        );
        first_bodies.push(body);
    }
    assert!(
        saved_bytes() == saved_before_reads,
        "three entity reads changed what `snapshot` persists"
    );

    // No ?strategy= defaults to components; unknown strategies are a 400.
    let (status, body) = client.get("/sessions/census/entities").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_field(&body, "strategy").as_deref(),
        Some("components"),
        "{body}"
    );
    assert_eq!(body, first_bodies[0]);
    let (status, _) = client
        .get("/sessions/census/entities?strategy=kmeans")
        .unwrap();
    assert_eq!(status, 400);
    let (_, stats) = client.get("/stats").unwrap();
    assert_eq!(
        json_field(&stats, "requests_entities").as_deref(),
        Some("5")
    );

    // Second life over the autosaved snapshot: every strategy's response
    // must come back byte-identical.
    running.shutdown().unwrap();
    let (running, client) = boot(config().snapshot_dir(&dir));
    for (strategy, first) in ClusterStrategy::ALL.iter().zip(&first_bodies) {
        let (status, body) = client
            .get(&format!(
                "/sessions/census/entities?strategy={}",
                strategy.name()
            ))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            &body, first,
            "restart changed the {strategy} entity response"
        );
    }
    running.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a body shorter than its declared `Content-Length` is a
/// fast 400, not a hang and not a half-parsed ingest.
#[test]
fn short_body_is_rejected_not_hung() {
    use std::io::{Read as _, Write as _};
    let (running, client) = boot(config());
    let mut stream = std::net::TcpStream::connect(running.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /sessions/census/ingest HTTP/1.1\r\nHost: x\r\n\
              Content-Length: 100\r\nConnection: close\r\n\r\nshort",
        )
        .unwrap();
    // Half-close: the declared body can never complete.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "want 400 for a short body, got: {response}"
    );
    let (status, _) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    running.shutdown().unwrap();
}

/// Satellite: a silent client is disconnected by the per-connection
/// deadline instead of pinning a worker thread forever.
#[test]
fn stalled_connections_are_disconnected_by_the_deadline() {
    let (running, client) = boot(config().request_timeout(Duration::from_millis(250)));
    let start = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(running.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing: the server's read deadline must close the connection.
    let mut buf = [0u8; 16];
    let n = std::io::Read::read(&mut stream, &mut buf).unwrap();
    assert_eq!(n, 0, "server should close a silent connection");
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "the deadline never fired"
    );
    let (status, _) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    running.shutdown().unwrap();
}

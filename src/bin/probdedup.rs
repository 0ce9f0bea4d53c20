//! `probdedup` — command-line duplicate detection for probabilistic data.
//!
//! ```text
//! probdedup generate --entities 500 --seed 42 --out-prefix data/census
//! probdedup stats    --input data/census.source0.pxr
//! probdedup dedup    --input data/census.source0.pxr --input data/census.source1.pxr \
//!                    --reduction snm-alternatives --window 6 --lambda 0.72 --mu 0.82
//! ```
//!
//! Relations are read and written in the text format of
//! [`probdedup::model::format`] (extension convention: `.pxr`,
//! "probabilistic x-relation").

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::process::ExitCode;

use probdedup::core::pipeline::{DedupPipeline, Defaults, ReductionStrategy};
use probdedup::core::session::DedupSession;
use probdedup::datagen::GroundTruth;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::decision::threshold::{MatchClass, Thresholds};
use probdedup::entity::{ClusterStrategy, ResolveEntities};
use probdedup::eval::ClusterMetrics;
use probdedup::model::format::{parse_xrelation, write_xrelation};
use probdedup::model::relation::XRelation;
use probdedup::model::schema::Schema;
use probdedup::model::snapshot::SnapshotError;
use probdedup::model::stats::RelationStats;
use probdedup::reduction::{ConflictResolution, KeyPart, KeySpec, WorldSelection};
use probdedup::serve::server::{ServeConfig, Server};

const USAGE: &str = "\
probdedup — duplicate detection in probabilistic data (Panse et al., ICDE 2010)

USAGE:
  probdedup generate --out-prefix PREFIX [--entities N] [--sources K] [--seed S]
      Write synthetic probabilistic sources PREFIX.sourceI.pxr and the
      ground truth PREFIX.truth (entity id per combined row).

  probdedup stats --input FILE.pxr
      Print the uncertainty profile of a relation.

  probdedup dedup --input FILE.pxr [--input FILE2.pxr ...]
      [--reduction full|snm-alternatives|snm-resolved|snm-multipass|
                   blocking|blocking-resolved|blocking-multipass]
      [--key attr:len[,attr:len...]] [--window W]
      [--lambda T] [--mu T] [--threads N]
      Run the one-shot pipeline and print decisions and duplicate clusters.

  probdedup ingest --input FILE.pxr [--input FILE2.pxr ...]
      (same options as dedup)
      Feed the inputs one at a time through a persistent DedupSession:
      each batch is interned incrementally, only new-vs-resident candidate
      pairs are classified, and the merged result is printed at the end
      (identical partition to a one-shot dedup over the same inputs).

  probdedup entities --input FILE.pxr [--input FILE2.pxr ...]
      [--strategy components|correlation-greedy|correlation-repaired]
      [--truth FILE.truth]
      (same pipeline options as dedup)
      Run the pipeline, then resolve the pairwise verdicts into entity
      clusters: build the similarity-weighted match graph over the
      decided pairs and cluster it with the chosen strategy —
      connected components over Match edges (default), greedy
      correlation clustering, or greedy + a local-search repair pass
      that resolves inconsistent triangles. With --truth (the file
      `generate` writes) the predicted partition is scored against the
      ground truth with cluster-level pairwise precision/recall/F1 and
      closest-cluster F1.

  probdedup snapshot save --out FILE.snap --input FILE.pxr [...]
      (same pipeline options as ingest)
      Run a session over the inputs and persist its state — the
      prepared relation and its decisions — to FILE.snap via an atomic
      crash-safe write.

  probdedup snapshot load --snapshot FILE.snap --input FILE.pxr [...]
      (same pipeline options as the save that wrote the snapshot)
      Re-open the session (its pools rebuilt from the stored relation)
      and rerun over the inputs: an unchanged corpus is answered from
      the stored decisions and the rebuilt pools (zero key renders).

  probdedup serve [--addr HOST:PORT] [--arity N]
      [--snapshot-dir DIR] [--autosave-secs S] [--wal-dir DIR]
      [--max-inflight N] [--request-timeout-secs S]
      (same pipeline options as ingest; --arity fixes the relation width,
      default 4, since the daemon builds its pipeline before any input,
      so its --key names the attributes attr0 … attrN-1 of that width)
      Run the HTTP serving front door: named warm sessions with dedup /
      ingest / query / partition / snapshot endpoints plus /stats,
      /health, /sessions and /shutdown. With --snapshot-dir, sessions
      autoload on boot and autosave on graceful shutdown (SIGTERM,
      ctrl-c, POST /shutdown) and every --autosave-secs. With --wal-dir,
      every accepted ingest/dedup batch is fsynced to NAME.wal *before*
      it mutates the session, and boot replays snapshot + journal tail —
      a kill -9 loses no acknowledged batch (the directory is probed for
      writability at boot; an unwritable one exits with code 6).
      --max-inflight bounds concurrently executing session requests
      (excess is shed with 503 + Retry-After); --request-timeout-secs
      sets the per-connection read/write deadline (default 60). Prints
      `listening on HOST:PORT` once ready (use port 0 for an ephemeral
      port).

COMMON PIPELINE OPTIONS (dedup / ingest / snapshot / serve):
  --reduction full|snm-alternatives|snm-resolved|snm-multipass|
              blocking|blocking-resolved|blocking-multipass
              (-resolved: one key per tuple, its most probable alternative's;
              -multipass: one pass per selected possible world)
  --key attr:len[,attr:len...]   --window W
  --lambda T  --mu T  --threads N

An option the subcommand does not know is a usage error (exit 2).
`probdedup --help` (or -h, or help) prints this text.

EXIT CODES:
  0 success   2 usage error   3 I/O error   4 data parse error
  5 corrupt or mismatched snapshot   6 unusable write-ahead journal
";

/// A CLI failure with its exit code: distinct codes let scripts tell a
/// typo (2) from a missing file (3), a malformed relation (4) or a
/// corrupt/mismatched snapshot (5).
enum CliError {
    /// Bad flags, unknown subcommand, invalid option values.
    Usage(String),
    /// The operating system said no (missing file, permissions, disk).
    Io(String),
    /// An input file exists but does not parse as probabilistic data.
    Parse(String),
    /// A snapshot failed validation (corruption, version or config
    /// mismatch) — the file was not silently misread.
    Snapshot(String),
    /// The write-ahead journal is unusable: the `--wal-dir` is not
    /// writable, or a journal failed to open/replay at boot. Distinct
    /// from a plain I/O error so supervisors can tell "fix the disk /
    /// permissions" from "input file missing".
    Wal(String),
    /// Whoever read our stdout went away (`probdedup dedup … | head`):
    /// nothing failed, there is just nobody left to print for.
    ClosedPipe,
}

impl From<std::io::Error> for CliError {
    /// A failed write to the stdout writer the printers share.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            Self::ClosedPipe
        } else {
            Self::Io(format!("stdout: {e}"))
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            Self::ClosedPipe => 0,
            Self::Usage(_) => 2,
            Self::Io(_) => 3,
            Self::Parse(_) => 4,
            Self::Snapshot(_) => 5,
            Self::Wal(_) => 6,
        }
    }

    fn message(&self) -> &str {
        match self {
            Self::Usage(m) | Self::Io(m) | Self::Parse(m) | Self::Snapshot(m) | Self::Wal(m) => m,
            Self::ClosedPipe => "stdout closed",
        }
    }
}

/// Classify a [`SnapshotError`]: the I/O layer failing to read the file is
/// an I/O error; everything else means the bytes themselves are bad.
fn snapshot_error(path: &str, e: SnapshotError) -> CliError {
    match e {
        SnapshotError::Io(io) => CliError::Io(format!("{path}: {io}")),
        other => CliError::Snapshot(format!("{path}: {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        // A closed pipe ends the run quietly: no message, no failure.
        Ok(()) | Err(CliError::ClosedPipe) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.message());
            if matches!(err, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(err.exit_code())
        }
    }
}

/// A tiny argument cursor: `--flag value` pairs after the subcommand.
/// Every lookup records the name it asked for, so a command can reject
/// what nobody read ([`Args::reject_unread`]) instead of silently
/// ignoring a typo.
struct Args {
    items: Vec<(String, String)>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, CliError> {
        let mut items = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got {flag:?}")))?;
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
            items.push((name.to_string(), value.clone()));
        }
        Ok(Self {
            items,
            read: RefCell::default(),
        })
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.items
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.all(name).into_iter().next_back()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse {v:?}"))),
            None => Ok(default),
        }
    }

    /// Fail on the first given option no lookup has asked for. Call once
    /// a command has read all of its options and before it does any work.
    fn reject_unread(&self) -> Result<(), CliError> {
        let read = self.read.borrow();
        match self.items.iter().find(|(name, _)| !read.contains(name)) {
            Some((name, _)) => Err(CliError::Usage(format!("unknown option --{name}"))),
            None => Ok(()),
        }
    }
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = raw
        .split_first()
        .ok_or_else(|| CliError::Usage("missing subcommand".to_string()))?;
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        std::io::stdout().lock().write_all(USAGE.as_bytes())?;
        return Ok(());
    }
    if cmd == "serve" {
        // The daemon logs to stdout for its whole life; it must not hold
        // the lock the one-shot printers below share.
        return cmd_serve(&Args::parse(rest)?);
    }
    // Every printer writes through this one locked handle, so a write
    // that fails is an error value (`ClosedPipe`), never a `println!`
    // panic.
    let out = &mut std::io::stdout().lock();
    if cmd == "snapshot" {
        return cmd_snapshot(rest, out);
    }
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "generate" => cmd_generate(&args, out),
        "stats" => cmd_stats(&args, out),
        "dedup" => cmd_dedup(&args, out),
        "entities" => cmd_entities(&args, out),
        "ingest" => cmd_ingest(&args, out),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

fn cmd_generate(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let prefix = args
        .get("out-prefix")
        .ok_or_else(|| CliError::Usage("--out-prefix is required".to_string()))?;
    let cfg = DatasetConfig {
        entities: args.get_parsed("entities", 500usize)?,
        sources: args.get_parsed("sources", 2usize)?,
        seed: args.get_parsed("seed", 42u64)?,
        ..DatasetConfig::default()
    };
    args.reject_unread()?;
    let ds = generate(&Dictionaries::people(), &cfg);
    for (i, rel) in ds.relations.iter().enumerate() {
        let path = format!("{prefix}.source{i}.pxr");
        std::fs::write(&path, write_xrelation(rel))
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        writeln!(out, "wrote {path} ({} x-tuples)", rel.len())?;
    }
    let truth_path = format!("{prefix}.truth");
    let truth_lines: Vec<String> = (0..ds.truth.len())
        .map(|row| format!("{row} {}", ds.truth.entity_of(row)))
        .collect();
    std::fs::write(&truth_path, truth_lines.join("\n") + "\n")
        .map_err(|e| CliError::Io(format!("{truth_path}: {e}")))?;
    writeln!(
        out,
        "wrote {truth_path} ({} rows, {} entities, {} true duplicate pairs)",
        ds.truth.len(),
        ds.truth.entity_count(),
        ds.truth.true_pair_count()
    )?;
    Ok(())
}

fn load_relation(path: &str) -> Result<XRelation, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    parse_xrelation(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

fn cmd_stats(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".to_string()))?;
    args.reject_unread()?;
    let rel = load_relation(path)?;
    writeln!(out, "{path}:")?;
    writeln!(out, "{}", RelationStats::for_xrelation(&rel))?;
    Ok(())
}

fn parse_key(spec: &str, schema: &probdedup::model::schema::Schema) -> Result<KeySpec, CliError> {
    let mut parts = Vec::new();
    for item in spec.split(',') {
        let (attr, len) = item
            .split_once(':')
            .ok_or_else(|| CliError::Usage(format!("key part {item:?} needs attr:len")))?;
        let idx = schema.index_of(attr.trim()).ok_or_else(|| {
            let names: Vec<&str> = (0..schema.arity()).map(|i| schema.name_of(i)).collect();
            CliError::Usage(format!(
                "unknown key attribute {attr:?} (the attributes are {})",
                names.join(", ")
            ))
        })?;
        let len: usize = len
            .trim()
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid prefix length in {item:?}")))?;
        parts.push(KeyPart::prefix(idx, len));
    }
    if parts.is_empty() {
        return Err(CliError::Usage("key must have at least one part".into()));
    }
    Ok(KeySpec::new(parts))
}

/// Shared option parsing of the input-driven commands: load the inputs
/// and build the configured pipeline over their schema.
fn parse_pipeline(args: &Args) -> Result<(Vec<String>, Vec<XRelation>, DedupPipeline), CliError> {
    let inputs: Vec<String> = args.all("input").iter().map(|s| s.to_string()).collect();
    if inputs.is_empty() {
        return Err(CliError::Usage("at least one --input is required".into()));
    }
    let relations: Vec<XRelation> = inputs
        .iter()
        .map(|p| load_relation(p))
        .collect::<Result<_, _>>()?;
    let schema = relations[0].schema().clone();
    let pipeline = build_pipeline(args, &schema)?;
    Ok((inputs, relations, pipeline))
}

/// Build the configured pipeline over `schema`: the flags given, applied
/// over [`Defaults`] — the input-driven commands pass the schema of their
/// first input, `serve` a placeholder schema of `--arity` width (only
/// arity and attribute names for `--key` matter to the pipeline).
fn build_pipeline(
    args: &Args,
    schema: &probdedup::model::schema::Schema,
) -> Result<DedupPipeline, CliError> {
    let mut d = Defaults::for_arity(schema.arity());
    d.window = args.get_parsed("window", d.window)?;
    if let Some(spec) = args.get("key") {
        d.key = parse_key(spec, schema)?;
    }
    let (spec, window) = (d.key.clone(), d.window);
    let strategy = ConflictResolution::MostProbableAlternative;
    let selection = WorldSelection::DiverseTopK { k: 3, pool: 32 };
    let reduction = match args.get("reduction").unwrap_or("snm-alternatives") {
        "full" => ReductionStrategy::Full,
        "snm-alternatives" => ReductionStrategy::SortingAlternatives { spec, window },
        "snm-resolved" => ReductionStrategy::ConflictResolved {
            spec,
            window,
            strategy,
        },
        "snm-multipass" => ReductionStrategy::MultipassWorlds {
            spec,
            window,
            selection,
        },
        "blocking" => ReductionStrategy::BlockingAlternatives { spec },
        "blocking-resolved" => ReductionStrategy::BlockingConflictResolved { spec, strategy },
        "blocking-multipass" => ReductionStrategy::BlockingMultipass { spec, selection },
        other => return Err(CliError::Usage(format!("unknown reduction {other:?}"))),
    };
    let lambda = args.get_parsed("lambda", d.thresholds.lambda())?;
    let mu = args.get_parsed("mu", d.thresholds.mu())?;
    d.threads = args.get_parsed("threads", d.threads)?;
    d.thresholds = Thresholds::new(lambda, mu).map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(d.builder().reduction(reduction).build())
}

/// Print a [`DedupResult`]: summary, matches, possibles, clusters.
fn print_result(
    out: &mut impl Write,
    result: &probdedup::core::pipeline::DedupResult,
) -> std::io::Result<()> {
    writeln!(out, "{}", result.summary())?;
    let sections = [
        ("matches:", MatchClass::Match),
        ("possible matches (clerical review):", MatchClass::Possible),
    ];
    for (title, class) in sections {
        writeln!(out, "{title}")?;
        for d in result.decisions.iter().filter(|d| d.class == class) {
            writeln!(
                out,
                "  {} ↔ {}  (sim {:.3})",
                result.handle(d.pair.0),
                result.handle(d.pair.1),
                d.similarity
            )?;
        }
    }
    writeln!(out, "duplicate clusters:")?;
    print_clusters(out, result, result.clusters.iter().map(Vec::as_slice))
}

/// One `{R0[3], R1[7]}` line per cluster.
fn print_clusters<'a>(
    out: &mut impl Write,
    result: &probdedup::core::pipeline::DedupResult,
    clusters: impl IntoIterator<Item = &'a [usize]>,
) -> std::io::Result<()> {
    for cluster in clusters {
        let members: Vec<String> = cluster
            .iter()
            .map(|&r| result.handle(r).to_string())
            .collect();
        writeln!(out, "  {{{}}}", members.join(", "))?;
    }
    Ok(())
}

fn cmd_dedup(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let (_, relations, pipeline) = parse_pipeline(args)?;
    let refs: Vec<&XRelation> = relations.iter().collect();
    args.reject_unread()?;
    let result = pipeline
        .run(&refs)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    print_result(out, &result)?;
    Ok(())
}

/// `entities`: one-shot pipeline run, then entity resolution over the
/// pairwise verdicts. With `--truth` the predicted partition is scored
/// against the ground-truth clustering.
fn cmd_entities(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let strategy = match args.get("strategy") {
        None => ClusterStrategy::Components,
        Some(name) => ClusterStrategy::from_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown strategy {name:?} (expected components, \
                 correlation-greedy or correlation-repaired)"
            ))
        })?,
    };
    let (_, relations, pipeline) = parse_pipeline(args)?;
    let truth_path = args.get("truth");
    args.reject_unread()?;
    let refs: Vec<&XRelation> = relations.iter().collect();
    let result = pipeline
        .run(&refs)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    let resolution = result.resolve_entities(strategy);
    writeln!(out, "{}", result.summary())?;
    writeln!(out, "{}", resolution.summary())?;
    writeln!(out, "entity clusters (size ≥ 2):")?;
    print_clusters(out, &result, resolution.duplicate_clusters())?;
    if let Some(path) = truth_path {
        let truth = load_truth(path, resolution.rows)?;
        let metrics = ClusterMetrics::from_partitions(
            &resolution.clusters,
            &truth.true_clusters(),
            resolution.rows,
        );
        writeln!(out, "vs truth: {metrics}")?;
    }
    Ok(())
}

/// Parse the `row entity` lines `generate` writes as `PREFIX.truth`.
fn load_truth(path: &str, rows: usize) -> Result<GroundTruth, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let mut entity = vec![u64::MAX; rows];
    let mut seen = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let bad = || CliError::Parse(format!("{path}:{}: expected `row entity`", lineno + 1));
        let (row, ent) = line.split_once(' ').ok_or_else(bad)?;
        let row: usize = row.parse().map_err(|_| bad())?;
        let ent: u64 = ent.trim().parse().map_err(|_| bad())?;
        if row >= rows {
            return Err(CliError::Parse(format!(
                "{path}:{}: row {row} out of range for {rows} input rows",
                lineno + 1
            )));
        }
        entity[row] = ent;
        seen += 1;
    }
    if seen != rows || entity.contains(&u64::MAX) {
        return Err(CliError::Parse(format!(
            "{path}: truth covers {seen} of {rows} input rows"
        )));
    }
    Ok(GroundTruth::new(entity))
}

/// The session front door: ingest the input files one at a time, printing
/// what each batch added, then the merged resident result. The final
/// partition is identical to `dedup` over the same inputs (the session's
/// split-invariance contract).
fn cmd_ingest(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let (inputs, relations, pipeline) = parse_pipeline(args)?;
    args.reject_unread()?;
    let mut session = pipeline.session();
    let mut classified = 0;
    for (path, rel) in inputs.iter().zip(&relations) {
        let step = session
            .ingest(rel)
            .map_err(|e| CliError::Parse(e.to_string()))?;
        classified += step.new_decisions.len();
        writeln!(out, "ingested {path}: {}", step.summary())?;
    }
    writeln!(
        out,
        "session: {} key renders, {} interned values, {classified} pairs classified",
        session.key_render_count(),
        session.interned_value_count(),
    )?;
    print_result(out, &session.result())?;
    Ok(())
}

/// `serve`: run the HTTP serving front door until a graceful shutdown
/// (SIGTERM, ctrl-c, or a client `POST /shutdown`). The pipeline is
/// built up front over a placeholder schema of `--arity` width — the
/// daemon has no inputs at boot; clients post relations — so `--key`
/// refers to attributes as `attr0..attrN-1`.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let arity = args.get_parsed("arity", 4usize)?;
    if arity == 0 {
        return Err(CliError::Usage("--arity must be at least 1".into()));
    }
    let schema = Schema::new((0..arity).map(|i| format!("attr{i}")));
    let pipeline = build_pipeline(args, &schema)?;

    let mut config = ServeConfig::new(&addr, pipeline);
    if let Some(dir) = args.get("snapshot-dir") {
        config = config.snapshot_dir(dir);
    }
    if let Some(secs) = args.get("autosave-secs") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| CliError::Usage(format!("--autosave-secs: cannot parse {secs:?}")))?;
        if secs <= 0.0 {
            return Err(CliError::Usage("--autosave-secs must be positive".into()));
        }
        if config.snapshot_dir.is_none() {
            return Err(CliError::Usage(
                "--autosave-secs requires --snapshot-dir".into(),
            ));
        }
        config = config.autosave_interval(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(dir) = args.get("wal-dir") {
        config = config.wal_dir(dir);
    }
    if let Some(bound) = args.get("max-inflight") {
        let bound: u64 = bound
            .parse()
            .map_err(|_| CliError::Usage(format!("--max-inflight: cannot parse {bound:?}")))?;
        if bound == 0 {
            return Err(CliError::Usage(
                "--max-inflight must be at least 1 (0 would shed everything)".into(),
            ));
        }
        config = config.max_inflight(bound);
    }
    if let Some(secs) = args.get("request-timeout-secs") {
        let secs: f64 = secs.parse().map_err(|_| {
            CliError::Usage(format!("--request-timeout-secs: cannot parse {secs:?}"))
        })?;
        if secs <= 0.0 {
            return Err(CliError::Usage(
                "--request-timeout-secs must be positive".into(),
            ));
        }
        config = config.request_timeout(std::time::Duration::from_secs_f64(secs));
    }
    args.reject_unread()?;

    let server = Server::bind(config).map_err(|e| match e {
        probdedup::serve::ServeError::Snapshot(path, err) => {
            snapshot_error(&path.display().to_string(), err)
        }
        e @ (probdedup::serve::ServeError::WalDir(..) | probdedup::serve::ServeError::Wal(..)) => {
            CliError::Wal(e.to_string())
        }
        other => CliError::Io(other.to_string()),
    })?;
    let restored = server.restored_sessions();
    if !restored.is_empty() {
        println!(
            "restored {} session(s): {}",
            restored.len(),
            restored.join(", ")
        );
    }
    // Scripts (the CI smoke test) scrape this line for the bound port.
    println!("listening on {}", server.local_addr());
    let summary = server.run();
    println!(
        "shut down: {} requests served, {} session(s) saved",
        summary.requests, summary.sessions_saved
    );
    Ok(())
}

/// Dispatch `snapshot save` / `snapshot load` — session persistence from
/// the command line.
fn cmd_snapshot(rest: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let (verb, rest) = rest.split_first().ok_or_else(|| {
        CliError::Usage("snapshot needs a verb: snapshot save | snapshot load".to_string())
    })?;
    let args = Args::parse(rest)?;
    match verb.as_str() {
        "save" => cmd_snapshot_save(&args, out),
        "load" => cmd_snapshot_load(&args, out),
        other => Err(CliError::Usage(format!(
            "unknown snapshot verb {other:?} (expected save or load)"
        ))),
    }
}

/// `snapshot save`: run a session over the inputs, then persist its state
/// atomically to `--out`.
fn cmd_snapshot_save(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out is required".to_string()))?
        .to_string();
    let (_, relations, pipeline) = parse_pipeline(args)?;
    args.reject_unread()?;
    let refs: Vec<&XRelation> = relations.iter().collect();
    let mut session = pipeline.session();
    let result = session
        .run(&refs)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    session.save(&path).map_err(|e| snapshot_error(&path, e))?;
    writeln!(
        out,
        "saved {path}: {} rows, {} decided pairs, {} interned values, {} key renders",
        session.rows(),
        session.candidate_count(),
        session.interned_value_count(),
        session.key_render_count(),
    )?;
    print_result(out, &result)?;
    Ok(())
}

/// `snapshot load`: re-open a saved session (the pipeline options must
/// match the save; opening rebuilds the pools from the stored relation)
/// and rerun over the inputs — an unchanged corpus replays with zero key
/// renders after open.
fn cmd_snapshot_load(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args
        .get("snapshot")
        .ok_or_else(|| CliError::Usage("--snapshot is required".to_string()))?
        .to_string();
    let (_, relations, pipeline) = parse_pipeline(args)?;
    args.reject_unread()?;
    let mut session = DedupSession::open(&path, &pipeline).map_err(|e| snapshot_error(&path, e))?;
    let renders_at_open = session.key_render_count();
    writeln!(
        out,
        "loaded {path}: {} rows, {} decided pairs, {} interned values",
        session.rows(),
        session.candidate_count(),
        session.interned_value_count(),
    )?;
    let refs: Vec<&XRelation> = relations.iter().collect();
    let result = session
        .run(&refs)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    writeln!(
        out,
        "warm rerun: {} key renders",
        session.key_render_count() - renders_at_open
    )?;
    print_result(out, &result)?;
    Ok(())
}

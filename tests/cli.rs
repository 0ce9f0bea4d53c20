//! Integration tests for the `probdedup` CLI binary: generate → stats →
//! dedup over the text format, end to end through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_probdedup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("probdedup-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_stats_dedup_roundtrip() {
    let dir = temp_dir("roundtrip");
    let prefix = dir.join("demo");
    let prefix_str = prefix.to_str().unwrap();

    // generate
    let out = bin()
        .args([
            "generate",
            "--out-prefix",
            prefix_str,
            "--entities",
            "40",
            "--seed",
            "11",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    let src0 = format!("{prefix_str}.source0.pxr");
    let src1 = format!("{prefix_str}.source1.pxr");
    assert!(std::path::Path::new(&src0).exists());
    assert!(std::path::Path::new(&src1).exists());
    assert!(prefix.with_extension("truth").exists());

    // The generated files parse back through the library.
    let text = std::fs::read_to_string(&src0).unwrap();
    let parsed = probdedup::model::format::parse_xrelation(&text).expect("valid .pxr");
    assert!(!parsed.is_empty());

    // stats
    let out = bin()
        .args(["stats", "--input", &src0])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tuples:"), "{stdout}");
    assert!(stdout.contains("log10(|worlds|)"), "{stdout}");

    // dedup across both sources
    let out = bin()
        .args([
            "dedup",
            "--input",
            &src0,
            "--input",
            &src1,
            "--reduction",
            "snm-alternatives",
            "--key",
            "name:3,city:2",
            "--window",
            "6",
        ])
        .output()
        .expect("run dedup");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("candidate pairs compared"), "{stdout}");
    assert!(stdout.contains("duplicate clusters:"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_matches_one_shot_dedup() {
    let dir = temp_dir("ingest");
    let prefix = dir.join("inc");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args([
            "generate",
            "--out-prefix",
            prefix_str,
            "--entities",
            "35",
            "--seed",
            "7",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let src0 = format!("{prefix_str}.source0.pxr");
    let src1 = format!("{prefix_str}.source1.pxr");

    let shared = [
        "--input",
        src0.as_str(),
        "--input",
        src1.as_str(),
        "--reduction",
        "snm-alternatives",
        "--key",
        "name:3,city:2",
        "--window",
        "5",
    ];
    let dedup = bin().arg("dedup").args(shared).output().expect("run dedup");
    assert!(
        dedup.status.success(),
        "{}",
        String::from_utf8_lossy(&dedup.stderr)
    );
    let ingest = bin()
        .arg("ingest")
        .args(shared)
        .output()
        .expect("run ingest");
    assert!(
        ingest.status.success(),
        "{}",
        String::from_utf8_lossy(&ingest.stderr)
    );

    let dedup_out = String::from_utf8_lossy(&dedup.stdout);
    let ingest_out = String::from_utf8_lossy(&ingest.stdout);
    // The session narrates its incremental steps...
    assert_eq!(ingest_out.matches("ingested ").count(), 2, "{ingest_out}");
    assert!(ingest_out.contains("pairs classified"), "{ingest_out}");
    assert!(ingest_out.contains("candidates resident"), "{ingest_out}");
    // ...but the merged result — summary, matches, possibles, clusters —
    // is identical to the one-shot pipeline over the same inputs (the
    // split-invariance contract).
    let tail = |s: &str| -> String {
        let from = s.find("candidate pairs compared").expect("summary line");
        let start = s[..from].rfind('\n').map_or(0, |i| i + 1);
        s[start..].to_string()
    };
    assert_eq!(tail(&dedup_out), tail(&ingest_out));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn determinism_across_invocations() {
    let dir = temp_dir("determinism");
    let p1 = dir.join("a");
    let p2 = dir.join("b");
    for p in [&p1, &p2] {
        let out = bin()
            .args([
                "generate",
                "--out-prefix",
                p.to_str().unwrap(),
                "--entities",
                "25",
                "--seed",
                "99",
            ])
            .output()
            .expect("run generate");
        assert!(out.status.success());
    }
    let a = std::fs::read_to_string(format!("{}.source0.pxr", p1.display())).unwrap();
    let b = std::fs::read_to_string(format!("{}.source0.pxr", p2.display())).unwrap();
    assert_eq!(a, b, "same seed must produce identical files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_save_load_roundtrip() {
    let dir = temp_dir("snapshot");
    let prefix = dir.join("snap");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args([
            "generate",
            "--out-prefix",
            prefix_str,
            "--entities",
            "30",
            "--seed",
            "5",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let src0 = format!("{prefix_str}.source0.pxr");
    let src1 = format!("{prefix_str}.source1.pxr");
    let snap = format!("{prefix_str}.session.snap");

    let shared = [
        "--input",
        src0.as_str(),
        "--input",
        src1.as_str(),
        "--reduction",
        "snm-alternatives",
        "--key",
        "name:3,city:2",
        "--window",
        "5",
    ];
    let save = bin()
        .args(["snapshot", "save", "--out", &snap])
        .args(shared)
        .output()
        .expect("run snapshot save");
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    let save_out = String::from_utf8_lossy(&save.stdout);
    assert!(save_out.contains("saved "), "{save_out}");
    assert!(std::path::Path::new(&snap).exists());

    let load = bin()
        .args(["snapshot", "load", "--snapshot", &snap])
        .args(shared)
        .output()
        .expect("run snapshot load");
    assert!(
        load.status.success(),
        "{}",
        String::from_utf8_lossy(&load.stderr)
    );
    let load_out = String::from_utf8_lossy(&load.stdout);
    // The reopened session replays the unchanged corpus fully warm.
    assert!(load_out.contains("warm rerun: 0 key renders"), "{load_out}");
    // And the restored partition equals the save-time one.
    let tail = |s: &str| -> String {
        let from = s.find("candidate pairs compared").expect("summary line");
        let start = s[..from].rfind('\n').map_or(0, |i| i + 1);
        s[start..].to_string()
    };
    assert_eq!(tail(&save_out), tail(&load_out));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_exit_codes_per_error_kind() {
    let dir = temp_dir("exitcodes");

    // Usage error (unknown subcommand) → 2, with the usage text.
    let out = bin().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));

    // I/O error (missing input file) → 3, no usage dump.
    let out = bin()
        .args(["stats", "--input", "/nonexistent/nope.pxr"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");

    // Data parse error (exists, but not a .pxr relation) → 4.
    let garbage = dir.join("garbage.pxr");
    std::fs::write(&garbage, "this is not a relation\n").unwrap();
    let out = bin()
        .args(["stats", "--input", garbage.to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(4));

    // Snapshot corruption → 5. The inputs must parse (they are loaded
    // before the snapshot opens), so generate a real relation first.
    let fake = dir.join("fake.snap");
    std::fs::write(&fake, b"PXDSNAP\0garbage that is not a session").unwrap();
    let real = dir.join("real");
    let gen = bin()
        .args([
            "generate",
            "--out-prefix",
            real.to_str().unwrap(),
            "--entities",
            "10",
            "--seed",
            "3",
        ])
        .output()
        .expect("run generate");
    assert!(gen.status.success());
    let src = format!("{}.source0.pxr", real.display());
    let out = bin()
        .args([
            "snapshot",
            "load",
            "--snapshot",
            fake.to_str().unwrap(),
            "--input",
            &src,
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A snapshot written under a retired reduction is a mismatch (5) that
    // names it, and the retired `--reduction` values are usage errors (2).
    for (fixture, retired) in [
        ("snm-ranked-v1.snap", "snm-ranked"),
        ("blocking-cluster-v1.snap", "blocking-cluster"),
    ] {
        let snap = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
        let out = bin()
            .args(["snapshot", "load", "--snapshot", &snap, "--input", &src])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "{fixture}: {stderr}");
        assert!(stderr.contains(retired), "{fixture}: {stderr}");
    }
    for reduction in ["snm-ranked", "cluster-blocking"] {
        let out = bin()
            .args(["dedup", "--input", &src, "--reduction", reduction])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "--reduction {reduction}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown reduction"));
    }

    // Missing snapshot file → I/O (3), not corruption.
    let out = bin()
        .args([
            "snapshot",
            "load",
            "--snapshot",
            dir.join("absent.snap").to_str().unwrap(),
            "--input",
            &src,
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entities_subcommand_resolves_and_scores() {
    let dir = temp_dir("entities");
    let prefix = dir.join("ent");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args([
            "generate",
            "--out-prefix",
            prefix_str,
            "--entities",
            "40",
            "--seed",
            "13",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let src0 = format!("{prefix_str}.source0.pxr");
    let src1 = format!("{prefix_str}.source1.pxr");
    let truth = format!("{prefix_str}.truth");

    let shared = [
        "--input",
        src0.as_str(),
        "--input",
        src1.as_str(),
        "--key",
        "name:3,city:2",
    ];
    for strategy in ["components", "correlation-greedy", "correlation-repaired"] {
        let out = bin()
            .arg("entities")
            .args(shared)
            .args(["--strategy", strategy, "--truth", &truth])
            .output()
            .expect("run entities");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(strategy), "{stdout}");
        assert!(stdout.contains("entity clusters (size ≥ 2):"), "{stdout}");
        assert!(stdout.contains("vs truth: pairwise"), "{stdout}");
        assert!(stdout.contains("ccF1="), "{stdout}");
    }

    // Unknown strategy → usage error (2).
    let out = bin()
        .arg("entities")
        .args(shared)
        .args(["--strategy", "kmeans"])
        .output()
        .expect("run entities");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    // A truth file that does not cover the corpus → parse error (4).
    let out = bin()
        .arg("entities")
        .args(["--input", src0.as_str(), "--truth", &truth])
        .output()
        .expect("run entities");
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_wal_flags_and_exit_code() {
    let dir = temp_dir("walflags");

    // An unusable --wal-dir is its own exit code (6): the daemon refuses
    // to accept traffic it could not journal, and a supervisor can tell
    // "fix the disk" apart from a plain I/O error.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"a file, not a directory").unwrap();
    let wal = blocker.join("wal");
    let out = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            wal.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wal dir"), "{stderr}");

    // A corrupt journal (not our magic) also refuses boot with 6 — the
    // foreign file is reported, never clobbered.
    let waldir = dir.join("wal-ok");
    std::fs::create_dir_all(&waldir).unwrap();
    std::fs::write(waldir.join("census.wal"), b"NOTAWAL\0junk bytes here").unwrap();
    let out = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            waldir.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --max-inflight 0 is a usage error, caught before binding.
    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--max-inflight", "0"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));

    // So is a non-positive --request-timeout-secs.
    let out = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--request-timeout-secs",
            "0",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon builds its pipeline over a placeholder schema before any
/// input arrives, so a `--key` naming a real attribute is a usage error
/// whose message lists the names it takes (exit 2, nothing bound).
#[test]
fn serve_key_error_names_the_placeholder_attributes() {
    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--key", "name:3"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("\"name\""), "{stderr}");
    assert!(stderr.contains("attr0, attr1, attr2, attr3"), "{stderr}");
}

/// Asking for help is not an error: all three spellings print the usage
/// text to stdout and exit 0 (a *wrong* subcommand stays exit 2 with the
/// usage on stderr — `helpful_errors`).
#[test]
fn help_prints_usage_and_succeeds() {
    for spelling in ["--help", "-h", "help"] {
        let out = bin().arg(spelling).output().expect("run");
        assert_eq!(out.status.code(), Some(0), "{spelling}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE"), "{spelling}: {stdout}");
        assert!(stdout.contains("probdedup ingest"), "{spelling}: {stdout}");
        assert!(out.stderr.is_empty(), "{spelling}");
    }
}

/// Every `ReductionStrategy` is reachable through `--reduction`, and the
/// streamed `ingest` prints the result `dedup` prints under each.
#[test]
fn every_reduction_strategy_is_reachable_and_split_invariant() {
    let dir = temp_dir("reductions");
    let prefix = dir.join("r");
    let out = bin()
        .args(["generate", "--out-prefix", prefix.to_str().unwrap()])
        .args(["--entities", "60", "--sources", "3", "--seed", "5"])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let inputs: Vec<String> = (0..3)
        .flat_map(|i| {
            [
                "--input".to_string(),
                format!("{}.source{i}.pxr", prefix.display()),
            ]
        })
        .collect();
    for reduction in [
        "full",
        "snm-alternatives",
        "snm-resolved",
        "snm-multipass",
        "blocking",
        "blocking-resolved",
        "blocking-multipass",
    ] {
        let run = |cmd: &str| {
            let out = bin()
                .arg(cmd)
                .args(&inputs)
                .args(["--reduction", reduction, "--threads", "2"])
                .output()
                .expect("run");
            assert!(
                out.status.success(),
                "{cmd} --reduction {reduction}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let dedup = run("dedup");
        let ingest = run("ingest");
        // `ingest` prints one line per batch and a `session:` line first.
        let (_, streamed) = ingest
            .split_once("session: ")
            .and_then(|(_, rest)| rest.split_once('\n'))
            .expect("session line");
        assert_eq!(streamed, dedup, "--reduction {reduction}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    // Unknown subcommand.
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");

    // Missing required flag.
    let out = bin().args(["generate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out-prefix"));

    // Nonexistent input file.
    let out = bin()
        .args(["stats", "--input", "/nonexistent/nope.pxr"])
        .output()
        .expect("run");
    assert!(!out.status.success());

    // Bad key spec.
    let dir = temp_dir("badkey");
    let prefix = dir.join("x");
    bin()
        .args([
            "generate",
            "--out-prefix",
            prefix.to_str().unwrap(),
            "--entities",
            "10",
        ])
        .output()
        .expect("run generate");
    let out = bin()
        .args([
            "dedup",
            "--input",
            &format!("{}.source0.pxr", prefix.display()),
            "--key",
            "nonexistent:3",
        ])
        .output()
        .expect("run dedup");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key attribute"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Options nobody reads are a usage error (exit 2) — a typo'd flag must
/// not silently run with the default, and the removed `--cache`,
/// `--memo-capacity`, `--memory-budget` and `--shards` switches must not
/// be silently ignored either.
#[test]
fn unknown_options_are_usage_errors() {
    let dir = temp_dir("unknownflags");
    let prefix = dir.join("u");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args(["generate", "--out-prefix", prefix_str, "--entities", "10"])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let src0 = format!("{prefix_str}.source0.pxr");

    // A typo of --threads.
    let out = bin()
        .args(["dedup", "--input", &src0, "--thraeds", "8"])
        .output()
        .expect("run dedup");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --thraeds"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "a usage error must not run the pipeline"
    );

    // The stale engine switch, the removed memo and cache ceilings and the
    // retired sharded driver, on a one-shot and on a session command.
    for cmd in ["dedup", "ingest"] {
        for (flag, value) in [
            ("--cache", "false"),
            ("--memo-capacity", "8"),
            ("--memory-budget", "1m"),
            ("--shards", "2"),
        ] {
            let out = bin()
                .args([cmd, "--input", &src0, flag, value])
                .output()
                .expect("run with a removed flag");
            assert_eq!(out.status.code(), Some(2), "{cmd} {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unknown option {flag}")),
                "{cmd}: {stderr}"
            );
        }
    }

    // Commands without pipeline options check too.
    let out = bin()
        .args(["stats", "--input", &src0, "--verbose", "1"])
        .output()
        .expect("run stats");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

/// The default key must fit the relation: on a one-attribute schema it is
/// the name prefix alone (it used to name attribute 1 and panic). With
/// three rows inside one window the partition equals full comparison's.
#[test]
fn one_attribute_relation_gets_an_in_range_default_key() {
    let dir = temp_dir("arity1");
    let input = dir.join("one.pxr");
    std::fs::write(
        &input,
        "schema name:text\nxtuple\n  alt 1 | Johnathan\nxtuple\n  alt 0.9 | Johnathan\nxtuple\n  alt 1 | Tim\n",
    )
    .unwrap();
    let input = input.to_str().unwrap();
    let clusters = |args: &[&str]| -> String {
        let out = bin()
            .args(args)
            .args(["--input", input])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let from = stdout.find("duplicate clusters:").expect("clusters");
        stdout[from..].to_string()
    };
    let full = clusters(&["dedup", "--reduction", "full"]);
    assert!(full.contains("{R0[0], R0[1]}"), "{full}");
    assert_eq!(clusters(&["dedup"]), full);
    assert_eq!(clusters(&["ingest"]), full);
    std::fs::remove_dir_all(&dir).ok();
}

/// `dedup` with no pipeline flag runs the library's default
/// configuration: the same summary line and the same duplicate clusters
/// as [`Defaults::for_arity`](probdedup::core::Defaults::for_arity) over
/// the same sources.
#[test]
fn dedup_without_pipeline_flags_is_the_library_default() {
    let dir = temp_dir("defaults");
    let prefix = dir.join("d");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args(["generate", "--out-prefix", prefix_str, "--entities", "150"])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let inputs = [0, 1].map(|i| format!("{prefix_str}.source{i}.pxr"));
    let out = bin()
        .args(["dedup", "--input", &inputs[0], "--input", &inputs[1]])
        .output()
        .expect("run dedup");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    let relations = inputs.map(|path| {
        let text = std::fs::read_to_string(path).unwrap();
        probdedup::model::format::parse_xrelation(&text).expect("valid .pxr")
    });
    assert_eq!(relations[0].schema().arity(), 4);
    let result = probdedup::core::Defaults::for_arity(4)
        .builder()
        .build()
        .run(&[&relations[0], &relations[1]])
        .unwrap();
    assert!(result.clusters.iter().any(|c| c.len() > 1));
    let mut expected = String::from("duplicate clusters:\n");
    for cluster in &result.clusters {
        let members: Vec<String> = cluster
            .iter()
            .map(|&row| result.handle(row).to_string())
            .collect();
        expected += &format!("  {{{}}}\n", members.join(", "));
    }
    assert_eq!(stdout.lines().next(), Some(result.summary().as_str()));
    let from = stdout.find("duplicate clusters:").expect("clusters");
    assert_eq!(stdout[from..], expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// `probdedup dedup … | head -1`: a reader that goes away ends the run
/// quietly — no `println!` panic, no backtrace, no failure exit.
#[test]
fn closed_stdout_pipe_is_not_a_panic() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = temp_dir("closedpipe");
    let prefix = dir.join("p");
    let prefix_str = prefix.to_str().unwrap();
    let out = bin()
        .args(["generate", "--out-prefix", prefix_str, "--entities", "60"])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    // Every pair of a full comparison prints as a match: far more output
    // than a pipe buffers, so the child is still writing when the reader
    // closes whichever side gets there first.
    let mut child = bin()
        .args([
            "dedup",
            "--reduction",
            "full",
            "--lambda",
            "0.01",
            "--mu",
            "0.02",
        ])
        .args(["--input", &format!("{prefix_str}.source0.pxr")])
        .args(["--input", &format!("{prefix_str}.source1.pxr")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dedup");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the summary line");
    assert!(first.contains("candidate pairs compared"), "{first}");
    // The reader is dropped (closed) here; the child's next write fails.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    std::fs::remove_dir_all(&dir).ok();
}

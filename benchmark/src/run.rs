//! One run of one workload: a discarded warm-up round, then R rounds of
//! set-up + journey over the workload's frozen corpus, and the report.
//! Every round of an untraced run sets up afresh, so `setup_s` has one
//! sample per round like every other timing, and each timing is the
//! median over the rounds. A traced run (`--trace 1`) interleaves two
//! traced with two untraced rounds over one set-up, probes every layer
//! and writes the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::host::REFERENCE_S;
use crate::journey::{round, Counts, Ops, RoundSample, MIN_SAMPLE_S};
use crate::json::quote;
use crate::layers::{probe, ProbeInput};
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workload::{out_dir, set_up, Reps, Scratch, Setup, Workload, THREADS};

/// Rounds of a traced run: tracing alternates off / on, so both halves
/// see the same host conditions.
const TRACED_RUN_ROUNDS: usize = 4;

/// A finished run, as the driver wants it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric this run reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything printed before the result line.
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object, exactly the four keys the
    /// contract names.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The run header: enough to tell two outputs apart and compare them.
fn header(w: &Workload, seed: u64, setup: &Setup) -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.trim().to_string(), |c| c.trim().to_string()),
        None if head.trim().is_empty() => "unknown (not a git checkout)".to_string(),
        None => head.trim().to_string(),
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut s = String::new();
    let _ = writeln!(s, "workload   {} (seed {seed}): {}", w.name, w.why);
    let _ = writeln!(s, "commit     {commit}");
    let _ = writeln!(s, "toolchain  {rustc}");
    let _ = writeln!(
        s,
        "host       {cpu}, available_parallelism {cores}, pipeline threads {THREADS}"
    );
    let _ = writeln!(
        s,
        "corpus     {} rows in {} sources, {} bytes of .pxr text, {:?} reduction",
        setup.corpus.rows(),
        setup.corpus.sources.len(),
        setup.corpus.pxr_bytes,
        w.reduce
    );
    let _ = writeln!(
        s,
        "journey    B = {} ingest batches, W = {} daemon blocks × {} queries, a heavy read every {}",
        w.batches, w.blocks, w.reads_per_block, w.heavy_every
    );
    s
}

/// The counts of round `r`, one line. They repeat exactly: across the
/// rounds of a run (checked there) and across runs (`--selfcheck`
/// compares these lines).
fn counts_line(r: usize, c: &Counts) -> String {
    format!(
        "counts     round {r}: {} candidates, {} decisions, {} matches, {} journal bytes, \
         pairwise_f1 {}",
        c.candidates, c.decisions, c.matches, c.wal_bytes, c.pairwise_f1
    )
}

/// Rounds an untraced run never goes below.
const MIN_ROUNDS: usize = 5;

/// Does another round fit a run of `seconds`, `done` rounds having taken
/// `elapsed_s`? The run length sets the number of rounds only, never the
/// work of a round; and because it is held against the clock, a run
/// takes as long when the host is in a slow phase as when it is not
/// (fewer rounds then), which keeps the driver's 92 runs inside its cap.
fn another_round_fits(done: usize, elapsed_s: f64, seconds: f64) -> bool {
    done < MIN_ROUNDS || elapsed_s + elapsed_s / done as f64 <= seconds
}

/// Where a traced run leaves its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace-{workload}.json"))
}

/// Execute one run. `rounds` overrides the round count derived from
/// `seconds` (tests run a single round over a tiny corpus).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, rounds: Option<usize>) -> Outcome {
    let mut scratch = Scratch::create(&out_dir()).expect("create benchmark/out/tmp-<pid>");
    let mut tracer = Tracer::new(trace);
    let mut ops = Ops::default();
    // A traced run and a test fix their round count; an untraced run
    // keeps starting rounds while the next one still fits `seconds`.
    let fixed_rounds = rounds.or(trace.then_some(TRACED_RUN_ROUNDS));

    // One discarded round, every operation once: lazy initialisation,
    // page cache and the allocator reach steady state before anything is
    // sampled.
    let dir = scratch.dir("daemon");
    let (warm_setup, _) = tracer.time("setup", |t| set_up(w, seed, &dir, t));
    let mut report = header(w, seed, &warm_setup);
    let (warm, warmup_s) = tracer.time("warmup", |t| {
        round(&warm_setup, w, Reps::ONCE, &mut scratch, t, &mut ops)
    });
    let _ = writeln!(report, "warm-up    one discarded round, {warmup_s:.3} s");

    // Rounds. An untraced run sets up afresh for every round — corpus
    // generated and parsed again, new pipelines, new daemon — and each
    // set-up is one `setup_s` sample. A traced run keeps the warm-up's
    // set-up, so its traced and untraced rounds differ in tracing alone.
    let mut setup_s = Vec::new();
    let mut peak_rss = Vec::new();
    let mut current = warm_setup;
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let started = Instant::now();
    let mut r = 0;
    while match fixed_rounds {
        Some(n) => r < n,
        None => another_round_fits(r, started.elapsed().as_secs_f64(), seconds),
    } {
        r += 1;
        crate::reset_peak_rss();
        if !trace {
            // One `setup_s` sample: `reps.setup` complete set-ups back to
            // back, the last of which serves this round.
            let mut retired = Vec::with_capacity(w.reps.setup);
            let (s, secs) = tracer.time("setup", |t| {
                for _ in 1..w.reps.setup {
                    retired.push(set_up(w, seed, &scratch.dir("daemon"), t));
                }
                set_up(w, seed, &scratch.dir("daemon"), t)
            });
            setup_s.push(secs / w.reps.setup as f64);
            retired.push(std::mem::replace(&mut current, s));
            // Untimed, and all at once: a daemon's shutdown waits out the
            // 50 ms poll of its signal watcher.
            std::thread::scope(|scope| {
                for old in retired {
                    scope.spawn(move || drop(old));
                }
            });
        }
        // A traced run records every second round only.
        let on = trace && r % 2 == 0;
        tracer.set_enabled(on);
        tracer.set_round(r as u32);
        let (sample, _) = tracer.time("round", |t| {
            round(&current, w, w.reps, &mut scratch, t, &mut ops)
        });
        let _ = writeln!(report, "{}", counts_line(r, &sample.counts));
        ops.check(
            "counts identical to the warm-up round's",
            sample.counts == warm.counts,
        );
        if on { &mut traced } else { &mut untraced }.push(sample);
        peak_rss.push((crate::proc_status_kb("VmHWM:") * 1024) as f64);
    }
    tracer.set_enabled(trace);
    tracer.set_round(0);
    let _ = writeln!(
        report,
        "rounds     R = {r} in {:.1} s (fixed work per round; --seconds {seconds} sets R only)",
        started.elapsed().as_secs_f64()
    );

    let metrics = if trace {
        let input = ProbeInput {
            setup: &current,
            workload: w,
            seed,
            traced: &traced,
            untraced: &untraced,
        };
        let (values, _) = tracer.time("layers", |t| probe(&input, &mut scratch, t, &mut ops));
        let path = trace_path(w.name);
        std::fs::write(&path, tracer.to_json(w.name, seed)).expect("write the trace file");
        let _ = writeln!(
            report,
            "trace      {} spans → {}",
            tracer.spans().len(),
            path.display()
        );
        layer_metrics(&values, &mut report)
    } else {
        end_to_end_metrics(&setup_s, &peak_rss, &untraced, w.reps, &mut report)
    };

    let _ = writeln!(
        report,
        "ops_attempted {}  ops_failed {}",
        ops.attempted, ops.failed
    );
    for f in &ops.failures {
        let _ = writeln!(report, "FAILED     {f}");
    }
    Outcome {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        report,
    }
}

/// Every end-to-end metric of an untraced run. A timing's value is the
/// median of its per-round samples divided by the run's host-speed
/// factor (see [`crate::host`]); the report shows the measured median,
/// quartiles and sample count beside it and every raw sample below the
/// table.
fn end_to_end_metrics(
    setup_s: &[f64],
    peak_rss: &[f64],
    rounds: &[RoundSample],
    reps: Reps,
    report: &mut String,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    samples.insert("setup_s", setup_s.to_vec());
    for r in rounds {
        for (name, secs) in r.timings() {
            samples.entry(name).or_default().push(secs);
        }
    }
    samples.insert("peak_rss_bytes", peak_rss.to_vec());
    samples.insert(
        "pairwise_f1",
        rounds.iter().map(|r| r.counts.pairwise_f1).collect(),
    );

    let probes: Vec<f64> = rounds.iter().flat_map(|r| r.host.iter().copied()).collect();
    let factor = median(&probes) / REFERENCE_S;
    let (p1, p3) = quartiles(&probes);
    let _ = writeln!(
        report,
        "host speed {} probe readings, median {:.5} s (quartiles {p1:.5} / {p3:.5}) = \
         {factor:.3} × the reference box's quiet phase; timings are reported divided by it",
        probes.len(),
        median(&probes),
    );

    // Repetitions inside one sample, for the timings that have them.
    let repeats = |name: &str| match name {
        "setup_s" => Some(reps.setup),
        "dedup_bounded_s" => Some(reps.dedup_bounded),
        "dedup_exact_s" => Some(reps.dedup_exact),
        "entities_s" => Some(reps.entities),
        "ingest_s" => Some(reps.ingest),
        "recover_s" => Some(reps.recover),
        "serve_read_s" | "serve_write_s" => Some(reps.serve),
        _ => None,
    };
    let _ = writeln!(
        report,
        "{:<16} {:>5} {:>14} | {:>14} {:>14} {:>14} {:>2} | {:<18} sample",
        "end-to-end", "unit", "value", "measured median", "q1", "q3", "n", "regression bound"
    );
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let s = &samples[m.name];
            let (q1, q3) = quartiles(s);
            // Timings: the median over rounds, in the reference box's
            // seconds. Counts and ratios: as read.
            let value = if m.unit == "s" {
                median(s) / factor
            } else {
                median(s)
            };
            let sample = repeats(m.name).map_or(String::new(), |k| {
                let secs = median(s) * k as f64;
                let short = if secs < MIN_SAMPLE_S { "  SHORT" } else { "" };
                format!("×{k} = {secs:.3} s{short}")
            });
            let _ = writeln!(
                report,
                "{:<16} {:>5} {:>14.6} | {:>14.6} {:>14.6} {:>14.6} {:>2} | {:<18} {sample}",
                m.name,
                m.unit,
                value,
                median(s),
                q1,
                q3,
                s.len(),
                format!("{} by ≤ {} %", m.better.name(), m.bound * 100.0),
            );
            (m.name, value, m.unit)
        })
        .collect();
    for m in END_TO_END {
        let _ = writeln!(report, "samples    {} {:?}", m.name, samples[m.name]);
    }
    let _ = writeln!(report, "samples    host_probe_s {probes:?}");
    metrics
}

fn layer_metrics(
    values: &BTreeMap<&'static str, f64>,
    report: &mut String,
) -> Vec<(&'static str, f64, &'static str)> {
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "the probes must measure exactly the per-layer metric table"
    );
    let _ = writeln!(
        report,
        "{:<34} {:>6} {:>18}  better",
        "per-layer", "unit", "value"
    );
    PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("no probe measured {}", m.name));
            let _ = writeln!(
                report,
                "{:<34} {:>6} {:>18.6}  {}",
                m.name,
                m.unit,
                value,
                m.better.name()
            );
            (m.name, value, m.unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Reduce;

    /// A corpus small enough for a debug-build test: the whole journey,
    /// one round.
    const TINY: Workload = Workload {
        name: "tiny",
        why: "test",
        corpus_seed: 5,
        rows_per_source: 40,
        reduce: Reduce::SortingAlternatives { window: 4 },
        batches: 4,
        blocks: 2,
        reads_per_block: 30,
        heavy_every: 1,
        reps: Reps {
            setup: 2,
            dedup_bounded: 2,
            dedup_exact: 1,
            entities: 3,
            ingest: 2,
            recover: 2,
            serve: 2,
        },
        f1_frozen: 0.0,
    };

    fn printed(outcome: &Outcome) -> Vec<String> {
        let doc = Json::parse(&outcome.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        doc.get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
                name.clone()
            })
            .collect()
    }

    #[test]
    fn run_length_sets_the_number_of_rounds_and_never_below_five() {
        // 3 s rounds: seven fit 24 s, an eighth would end at 24 s sharp.
        assert!(another_round_fits(6, 18.0, 24.0));
        assert!(another_round_fits(7, 21.0, 24.0));
        assert!(!another_round_fits(8, 24.0, 24.0));
        // A slow host: rounds of 6 s — five of them all the same.
        assert!(another_round_fits(4, 24.0, 24.0));
        assert!(!another_round_fits(5, 30.0, 24.0));
        assert!(another_round_fits(0, 0.0, 1.0));
    }

    /// Manifest ↔ printed-metric set equality, both run kinds, plus: every
    /// output check passes on the tiny corpus and the scratch directory
    /// is gone afterwards.
    #[test]
    fn a_run_prints_exactly_the_manifests_metrics() {
        let untraced = run(&TINY, 5, 1.0, false, Some(1));
        assert!(untraced.correct, "{}", untraced.report);
        assert!(untraced.attempted > 0 && untraced.failed == 0);
        let mut want: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        want.sort();
        assert_eq!(printed(&untraced), want);
        assert!(untraced.metrics.iter().all(|&(_, v, _)| v > 0.0));

        let traced = run(&TINY, 5, 1.0, true, Some(2));
        assert!(traced.correct, "{}", traced.report);
        let mut want: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        want.sort();
        assert_eq!(printed(&traced), want);
        let trace = std::fs::read_to_string(trace_path("tiny")).expect("trace file written");
        assert!(Json::parse(&trace).is_some());
        std::fs::remove_file(trace_path("tiny")).expect("remove the test's trace file");

        let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
        assert!(!tmp.exists(), "scratch directory removed on exit");
    }
}

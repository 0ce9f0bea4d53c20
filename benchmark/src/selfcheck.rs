//! The benchmark measuring itself: is it steady enough for its own
//! bounds?
//!
//! `--selfcheck` runs two sets, A and B, of `--runs` N runs per workload,
//! interleaved A-B-A-B so both sets see the same drift of the host; run
//! `i` of either set uses `--seed` + `i`. Per end-to-end metric it
//! compares the two sets' medians against **half** the metric's bound
//! and, from four runs a set, each set's spread (first to third quartile
//! as a share of the median) against the bound; the counts that must
//! repeat exactly are compared across all runs. N = 1 (the default) is
//! "every workload twice"; N = 10 is the acceptance procedure of the
//! benchmark driver, with its limit on the medians halved.
//!
//! Each run is a child process (this binary re-executed), so `VmHWM`
//! belongs to one workload alone. What was observed is left in
//! `benchmark/out/selfcheck.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

use crate::json::{quote, Json};
use crate::manifest::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workload::{out_dir, Workload, WORKLOADS};

/// What one child run printed.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    /// The distinct `counts` of the run's rounds, round numbers removed
    /// (one entry when every round counted the same; runs differ in R).
    counts: Vec<String>,
    correct: bool,
}

/// Run one workload in a child process and read its result line.
fn child(w: &Workload, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let out = crate::self_command()
        .map_err(|e| format!("current_exe: {e}"))?
        .args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: no output (exit {})", w.name, out.status))?;
    let doc = Json::parse(last).ok_or_else(|| format!("{}: no result line: {last}", w.name))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{}: result line without metrics", w.name))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        metrics,
        counts: stdout
            .lines()
            .filter(|l| l.starts_with("counts "))
            .filter_map(|l| Some(l.split_once(": ")?.1.to_string()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true) && out.status.success(),
    })
}

/// One set's values of one metric.
fn values(runs: &[ChildRun], metric: &str) -> Vec<f64> {
    runs.iter().map(|r| r.metrics[metric]).collect()
}

/// `--selfcheck`: two interleaved sets of `runs` runs per workload.
pub fn selfcheck(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut sets: [BTreeMap<&'static str, Vec<ChildRun>>; 2] = Default::default();
    for i in 0..runs {
        for (label, set) in ["A", "B"].iter().zip(&mut sets) {
            for w in WORKLOADS {
                let seed = seed + i as u64;
                eprintln!(
                    "set {label}, run {}/{runs}: {} (seed {seed})",
                    i + 1,
                    w.name
                );
                match child(w, seed, seconds) {
                    Ok(run) => set.entry(w.name).or_default().push(run),
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    let [a, b] = &sets;
    // Quartiles of fewer than four values say nothing.
    let with_spread = runs >= 4;

    let mut all_ok = true;
    let mut json = String::new();
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9} {:>7}",
        "workload",
        "metric",
        "median A",
        "median B",
        "B vs A",
        "limit",
        "spread A",
        "spread B",
        "limit"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let (ra, rb) = (&a[w.name], &b[w.name]);
        let mut rows = Vec::new();
        for m in END_TO_END {
            let (va, vb) = (values(ra, m.name), values(rb, m.name));
            let diff = (median(&vb) - median(&va)) / median(&va);
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let diff_ok = diff.abs() <= m.bound / 2.0;
            // The driver does not hold set-up time to a spread.
            let spread_ok = !with_spread || m.name == "setup_s" || sa.max(sb) <= m.bound;
            all_ok &= diff_ok && spread_ok;
            let spreads = if with_spread {
                format!(
                    "{:>8.2}% {:>8.2}% {:>6.2}%",
                    sa * 100.0,
                    sb * 100.0,
                    m.bound * 100.0
                )
            } else {
                format!("{:>9} {:>9} {:>7}", "-", "-", "-")
            };
            println!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>6.2}% {spreads} {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                diff * 100.0,
                m.bound * 50.0,
                if diff_ok && spread_ok {
                    "ok"
                } else {
                    "EXCEEDS"
                }
            );
            let mut row = format!("{}: {{\"diff\": {}", quote(m.name), diff.abs());
            if with_spread {
                let _ = write!(row, ", \"spread_a\": {sa}, \"spread_b\": {sb}");
            }
            let _ = write!(row, ", \"a\": {va:?}, \"b\": {vb:?}}}");
            rows.push(row);
        }
        let first = &ra[0].counts;
        let deterministic = first.len() == 1 && ra.iter().chain(rb).all(|r| &r.counts == first);
        let correct = ra.iter().chain(rb).all(|r| r.correct);
        all_ok &= deterministic && correct;
        println!(
            "{:<14} counts across {} runs: {}   output checks: {}",
            w.name,
            2 * runs,
            if deterministic { "identical" } else { "DIFFER" },
            if correct { "pass" } else { "FAIL" }
        );
        let comma = if wi + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {}: {{\n      {}\n    }}{comma}",
            quote(w.name),
            rows.join(",\n      ")
        );
    }

    let procedure = format!(
        "two sets of {runs} run(s) per workload, seeds {seed}..{}, interleaved A-B-A-B; \
         diff = |median B - median A| / median A; spread = (q3 - q1) / median of a set, \
         quartiles as statistics.quantiles(n=4); a, b = the runs' values",
        seed + runs as u64 - 1
    );
    let path = out_dir().join("selfcheck.json");
    let doc = format!(
        "{{\n  \"procedure\": {},\n  \"noise\": {{\n{json}  }}\n}}\n",
        quote(&procedure)
    );
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The repo benchmark (see `benchmark/README.md` and `BENCHMARK.json`).
//!
//! ```text
//! probdedup-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! probdedup-benchmark --selfcheck [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! A workload run prints its report and, as the last line of standard
//! output, one JSON object `{correct, attempted, failed, metrics}`; it
//! exits non-zero when any output check failed.

mod host;
mod journey;
mod json;
mod layers;
mod manifest;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use workload::{RUN_SECONDS, WORKLOADS};

/// The kB value of `key` (e.g. `"VmHWM:"`) in `/proc/self/status`; 0
/// where the proc interface is unavailable.
fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Start `VmHWM` over at the current resident size, so that the next
/// reading is the peak of one round and `peak_rss_bytes` has a sample
/// per round like every timing. (One whole-run reading is the maximum
/// over every race between worker, connection and request threads of
/// the run: on `match-full` it read 159–174 MB in ten runs of one
/// binary.) Where the kernel refuses, the readings are peaks since
/// process start and their median still never exceeds the plain `VmHWM`.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

const ARENA_VAR: &str = "MALLOC_ARENA_MAX";

/// This binary, to be run again as the child that executes one workload,
/// with glibc's allocator held to one arena. `VmHWM` then belongs to that
/// workload alone and measures the program's structures: with the
/// default per-thread arenas, which arena a short-lived worker or
/// connection thread lands in is a race, every arena keeps its own
/// high-water mark, and `VmHWM` of one commit read 404–498 MB on
/// `match-full` (one arena: 162–167 MB). The journey timings read the
/// same with one arena as with the default (differences inside the
/// run-to-run noise on all four workloads).
fn self_command() -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.env(ARENA_VAR, "1");
    Ok(cmd)
}

const USAGE: &str = "usage: probdedup-benchmark --workload NAME --seed N --seconds S --trace 0|1
       probdedup-benchmark --selfcheck [--runs N] [--seed N] [--seconds S]";

enum Mode {
    Workload(String),
    Selfcheck,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Runs per workload and set of `--selfcheck`.
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut trace = false;
    let mut runs = 1usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            mode = Some(Mode::Selfcheck);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value.clone())),
            "--runs" => {
                runs = value.parse().map_err(|_| bad())?;
                if runs == 0 {
                    return Err(bad());
                }
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let mode = mode.ok_or("one of --workload, --selfcheck is required")?;
    Ok(Args {
        mode,
        seed,
        seconds,
        trace,
        runs,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Workload(name) => {
            let Some(w) = workload::workload(&name) else {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; one of {names:?}");
                return ExitCode::from(2);
            };
            if std::env::var(ARENA_VAR).as_deref() != Ok("1") {
                return match self_command().and_then(|mut c| c.args(&argv).status()) {
                    Ok(status) => ExitCode::from(status.code().unwrap_or(1) as u8),
                    Err(e) => {
                        eprintln!("cannot re-execute the benchmark: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            let outcome = run::run(w, args.seed, args.seconds, args.trace, None);
            print!("{}", outcome.report);
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::Selfcheck => selfcheck::selfcheck(args.runs, args.seed, args.seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "match-full",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert!(matches!(a.mode, Mode::Workload(ref n) if n == "match-full"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        assert!(matches!(
            args(&["--selfcheck"]).expect("valid").mode,
            Mode::Selfcheck
        ));
        let a = args(&["--selfcheck", "--runs", "10"]).expect("valid");
        assert!(matches!(a.mode, Mode::Selfcheck) && a.runs == 10);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &[][..],
            &["--seed", "1"],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--seed", "-1"],
            &["--selfcheck", "--runs", "0"],
            &["--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_status_reports_memory() {
        assert!(proc_status_kb("VmHWM:") > 0);
        assert_eq!(proc_status_kb("NoSuchKey:"), 0);
    }
}

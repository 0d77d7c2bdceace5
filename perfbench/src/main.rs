//! End-to-end and per-layer benchmark of the hybrid-relationship
//! reproduction.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--corrupt report|response|window]
//! ```
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (spans are also written to `perfbench-traces/`).
//! `--workload all` runs every workload in its own process. `--corrupt`
//! feeds one output check a corrupted output to show that it fails.
//! See README.md next to this file.

mod batch;
mod digest;
mod layers;
mod openloop;
mod output;
mod replay;
mod service;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use output::Outcome;

/// Worker threads every workload runs with, in process and in the daemon.
pub const THREADS: usize = 2;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-full", "internet-100k", "service-paper", "replay-10k"];

/// Workloads left out of `BENCHMARK.json`: their end-to-end figures move
/// with the load other tenants put on a small shared host, too much for a
/// regression gate. They still run by hand, and `paper-full`'s traced run
/// measures their layers.
pub const HAND_ONLY: [&str; 1] = ["service-paper"];

/// The end-to-end metrics every untraced run prints, in print order.
pub const E2E_METRICS: [&str; 5] = ["setup_s", "run_s", "peak_rss_mb", "op_tail_ms", "ops_per_s"];

/// Which output check `--corrupt` feeds a corrupted output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// A flipped byte in a batch report.
    Report,
    /// A flipped byte in a service response.
    Response,
    /// A flipped byte in a replay window report.
    Window,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Output check to demonstrate against a corrupted output.
    pub corrupt: Option<Corruption>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, corrupt: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be an integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--corrupt" => {
                args.corrupt = Some(match value()?.as_str() {
                    "report" => Corruption::Report,
                    "response" => Corruption::Response,
                    "window" => Corruption::Window,
                    other => {
                        return Err(format!(
                            "--corrupt takes report|response|window, got {other:?}"
                        ))
                    }
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Set-ups timed per run, at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Seconds of set-up timed per run, at least, so a set-up of a few
/// milliseconds is timed often enough for a steady median.
const SETUP_SECONDS: f64 = 0.5;

/// Run `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_SECONDS`]; returns the last result and the median seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = std::time::Instant::now();
        let result = setup();
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (result, stats::median(&times));
        }
    }
}

/// The execution knobs every workload uses: the defaults, pinned to
/// [`THREADS`] workers.
pub fn knobs() -> bench::ExecKnobs {
    bench::ExecKnobs { concurrency: THREADS, ..Default::default() }
}

/// `scale` with its topology and simulator seeds offset by `seed`, so
/// seed 0 is the repository's default scenario at that scale.
pub fn seeded(mut scale: bench::ExperimentScale, seed: u64) -> bench::ExperimentScale {
    scale.topology.seed = scale.topology.seed.wrapping_add(seed);
    scale.sim.seed = scale.sim.seed.wrapping_add(seed);
    scale
}

/// Remove every inherited `HYBRID_*` variable so no knob silently changes
/// what is measured, and say which were removed and what is used.
fn scrub_environment() {
    for (key, value) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("HYBRID_") {
            eprintln!(
                "perfbench: ignoring inherited {}={}",
                key.to_string_lossy(),
                value.to_string_lossy()
            );
            std::env::remove_var(&key);
        }
    }
    eprintln!(
        "perfbench: every HYBRID_* knob at its default; workers {THREADS}; daemon HYBRID_THREADS={THREADS} HYBRID_ADDR=127.0.0.1:0"
    );
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return match args.workload.as_str() {
            "paper-full" | "internet-100k" => Ok(batch::run(workload_name(&args.workload), args)),
            "service-paper" => service::run(args),
            "replay-10k" => Ok(replay::run(args)),
            other => Err(format!("unknown workload {other}")),
        };
    }
    let mut trace = trace::Trace::default();
    let outcome = match args.workload.as_str() {
        "paper-full" | "internet-100k" => {
            batch::run_traced(workload_name(&args.workload), args, &mut trace)?
        }
        "service-paper" => service::run_traced(args, &mut trace)?,
        "replay-10k" => replay::run_traced(args, &mut trace),
        other => return Err(format!("unknown workload {other}")),
    };
    let path = std::path::PathBuf::from("perfbench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    trace.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(outcome)
}

fn workload_name(name: &str) -> &'static str {
    WORKLOADS.into_iter().find(|w| *w == name).expect("validated workload")
}

/// Run every workload in its own child process (so no peak RSS carries
/// across) and print each one's result line, prefixed with its name.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in WORKLOADS {
        let mut command = std::process::Command::new(&exe);
        command.args(["--workload", workload]);
        command.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
        command.args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = command.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || line.is_empty() {
            return Err(format!("{workload} failed: {}", out.status));
        }
        println!("{workload}: {line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    scrub_environment();
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let started = std::time::Instant::now();
    let result = run_one(&args).and_then(|outcome| {
        if outcome.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<String> = if args.trace {
            layers::names().into_iter().map(|(n, _)| n).collect()
        } else {
            E2E_METRICS.iter().map(|n| n.to_string()).collect()
        };
        if printed != expected {
            return Err(format!("metrics {printed:?} differ from the benchmark's list"));
        }
        outcome.to_json()
    });
    match result {
        Ok(line) => {
            eprintln!(
                "perfbench: {} finished in {:.1}s",
                args.workload,
                started.elapsed().as_secs_f64()
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_mistakes() {
        let args =
            parse_args(&argv("--workload paper-full --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("paper-full", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
        let args = parse_args(&argv("--workload replay-10k --corrupt window")).unwrap();
        assert_eq!(args.corrupt, Some(Corruption::Window));
    }

    #[test]
    fn seed_zero_is_the_default_scenario() {
        let scale = seeded(bench::paper_scale(), 0);
        assert_eq!(scale.topology, bench::paper_scale().topology);
        assert_eq!(scale.sim, bench::paper_scale().sim);
        let other = seeded(bench::paper_scale(), 3);
        assert_ne!(other.topology.seed, scale.topology.seed);
        assert_ne!(other.sim.seed, scale.sim.seed);
    }
}

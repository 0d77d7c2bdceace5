//! bench_compare — the workspace's benchmark regression gate.
//!
//! Runs every criterion harness (`paper_experiments`, `components`,
//! `service`, `ingest`) via
//! `cargo bench -p bench` with the shim's `CRITERION_JSON` channel
//! enabled, writes the results as a `BENCH_*.json` snapshot in the same
//! format as the committed baselines, and compares every tracked group
//! against the newest committed `BENCH_pr*.json`. In gate mode (the
//! default) the process exits non-zero when any tracked group's mean
//! regresses by more than the threshold (25% unless `--threshold`
//! overrides it), or when a baseline benchmark is missing from the run
//! (renames must be accompanied by a recorded baseline, otherwise the
//! gate would silently stop tracking them). Gauge rows — `memory/*`
//! footprints and the `service/latency_*` / `service/throughput_*`
//! loadgen summaries — are compared and reported but never gate.
//!
//! Wall-clock comparisons only hold on comparable hardware, so the gate
//! skips itself with a clear message (`--force` gates anyway) when only
//! one CPU is available — the `*/threads={2,4}` rows measure pure
//! sharding overhead there — or when the baseline was recorded on a
//! host with a different core count than this runner.
//!
//! ```text
//! bench_compare                       # gate vs newest committed BENCH_pr*.json
//! bench_compare --record BENCH_pr4.json   # record a new committed baseline
//! bench_compare --baseline BENCH_pr3.json --threshold 40 --force
//! ```
//!
//! CI integration: when `CRITERION_JSON` names a path, the raw per-line
//! measurement stream the harnesses emit is kept there (instead of a
//! deleted temp file) so the workflow can upload it as an artifact; when
//! `GITHUB_STEP_SUMMARY` is set, the gate verdict and the full comparison
//! table are appended to it as Markdown, so a regression is diagnosable
//! from the run summary without replaying the benches.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// One benchmark's timings, in nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Row {
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

/// Whether a benchmark id names a gauge rather than a wall-clock timing.
///
/// Gauges — byte footprints and the loadgen throughput/latency summaries —
/// ride the same `CRITERION_JSON` channel and land in the committed
/// snapshots for trend-watching, but they are not wall-clock means: memory
/// gauges are exact and should only move when the code changes them
/// deliberately, and the service latency/throughput gauges are one
/// loadgen run, far noisier than a criterion mean. Both are therefore
/// reported in the table with a `gauge` verdict and exempted from the
/// >threshold regression gate and from the missing-benchmark failure.
fn is_gauge(id: &str) -> bool {
    id.starts_with("memory/")
        || id.starts_with("service/latency")
        || id.starts_with("service/throughput")
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let mut baseline_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut record_path: Option<PathBuf> = None;
    let mut threshold = 25.0f64;
    let mut force = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| format!("{name} requires a value (see --help)"));
        match arg.as_str() {
            "--baseline" => baseline_path = Some(PathBuf::from(value("--baseline")?)),
            "--out" => out_path = Some(PathBuf::from(value("--out")?)),
            "--record" => record_path = Some(PathBuf::from(value("--record")?)),
            "--threshold" => {
                threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold must be a number: {e}"))?;
            }
            "--force" => force = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_compare [--baseline FILE] [--out FILE] [--record FILE] \
                     [--threshold PCT] [--force]\n\
                     gate mode (default): run both harnesses, fail if any tracked group's mean \
                     regresses >PCT% vs the newest committed BENCH_pr*.json\n\
                     --record FILE: also run on 1-core hosts and never fail — for recording a \
                     new committed baseline"
                );
                return Ok(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }

    let gate = record_path.is_none();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if gate && cores == 1 && !force {
        println!(
            "bench gate SKIPPED: this runner exposes a single CPU, so the */threads={{2,4}} rows \
             measure sharding overhead rather than speedup and wall-clock comparisons against \
             the committed baseline are not meaningful. Re-run with --force to gate anyway."
        );
        append_step_summary(
            "### Bench gate: SKIPPED\n\nSingle-CPU runner — wall-clock comparison against the \
             baseline is not meaningful here.",
        );
        return Ok(0);
    }

    let out = record_path.clone().or(out_path).unwrap_or_else(|| {
        let mut p = PathBuf::from("target");
        p.push("BENCH_current.json");
        p
    });
    // Resolve the baseline before burning minutes on the harnesses: the
    // host-comparability check below may make the whole run pointless.
    let baseline_file = match baseline_path {
        Some(p) => Some(p),
        None => newest_committed_baseline(&out)?,
    };
    let baseline = match &baseline_file {
        Some(p) => Some(read_baseline(p)?),
        None => None,
    };
    if let (true, Some(file), Some(baseline)) = (gate, &baseline_file, &baseline) {
        // Wall-clock means only compare across machines of the same
        // shape; a baseline recorded on a different core count would
        // fail (or pass) PRs on hardware alone.
        if let Some(baseline_cores) = baseline.cpus {
            if baseline_cores != cores as u64 && !force {
                println!(
                    "bench gate SKIPPED: baseline {} was recorded on a host with {baseline_cores} \
                     CPU(s) but this runner has {cores}; cross-hardware wall-clock comparisons \
                     are not meaningful. Record a baseline on comparable hardware (--record \
                     BENCH_prN.json) or re-run with --force to gate anyway.",
                    file.display()
                );
                append_step_summary(&format!(
                    "### Bench gate: SKIPPED\n\nBaseline `{}` was recorded on a \
                     {baseline_cores}-CPU host but this runner has {cores} — cross-hardware \
                     wall-clock comparisons are not meaningful.",
                    file.display()
                ));
                return Ok(0);
            }
        }
    }

    let rows = run_benches()?;
    if rows.is_empty() {
        return Err("the harnesses reported no benchmarks over CRITERION_JSON".into());
    }
    write_bench_file(&out, &rows, cores)?;
    println!("wrote {} ({} benchmarks)", out.display(), rows.len());

    let (Some(baseline_file), Some(baseline)) = (baseline_file, baseline) else {
        println!("no committed BENCH_pr*.json baseline found; nothing to compare against");
        append_step_summary(
            "### Bench gate: no baseline\n\nNo committed `BENCH_pr*.json` found to compare \
             against.",
        );
        return Ok(0);
    };

    println!(
        "\ncomparison vs {} (gate threshold: +{threshold:.0}% on the mean):",
        baseline_file.display()
    );
    let mut table = String::from(
        "| benchmark | baseline mean | current mean | delta | verdict |\n\
         |---|---:|---:|---:|---|\n",
    );
    let mut regressions: Vec<String> = Vec::new();
    let mut missing: Vec<&str> = Vec::new();
    for (id, base_mean) in &baseline.means {
        let gauge = is_gauge(id);
        let Some(row) = rows.get(id) else {
            if gauge {
                // A gauge that stopped being emitted (e.g. a skipped
                // bench-scale row) is a note, never a gate failure.
                println!("  {id:<32} gauge absent from this run (not gated)");
                table.push_str(&format!("| `{id}` | — | — | — | gauge (absent) |\n"));
            } else {
                missing.push(id);
            }
            continue;
        };
        let ratio = if *base_mean == 0 { 1.0 } else { row.mean_ns as f64 / *base_mean as f64 };
        let delta = 100.0 * (ratio - 1.0);
        let verdict = if gauge {
            "gauge"
        } else if delta > threshold {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {id:<32} {:>12} ns -> {:>12} ns  {delta:+7.1}%  {verdict}",
            base_mean, row.mean_ns
        );
        table.push_str(&format!(
            "| `{id}` | {} ns | {} ns | {delta:+.1}% | {verdict} |\n",
            base_mean, row.mean_ns
        ));
        if !gauge && delta > threshold {
            regressions.push(format!("{id} ({delta:+.1}%)"));
        }
    }
    // A tracked benchmark that vanished is a gate failure, not a footnote:
    // otherwise renaming a group silently retires it from regression
    // tracking. Recording a new baseline is the explicit way to drop one.
    for id in &missing {
        println!(
            "  {id:<32} MISSING — present in baseline but not in this run (renamed or removed? \
             record a new baseline to retire it)"
        );
        table.push_str(&format!("| `{id}` | — | — | — | MISSING |\n"));
    }

    let ok = regressions.is_empty() && missing.is_empty();
    let headline = if ok {
        format!("### Bench gate: OK\n\nNo tracked group regressed more than {threshold:.0}%.")
    } else {
        format!(
            "### Bench gate: FAILED\n\n{} regression(s), {} missing benchmark(s) \
             (threshold +{threshold:.0}% on the mean).",
            regressions.len(),
            missing.len()
        )
    };
    append_step_summary(&format!(
        "{headline}\n\nCompared against `{}` on a {cores}-CPU runner.\n\n{table}",
        baseline_file.display()
    ));

    if ok {
        println!("\nbench gate OK: no tracked group regressed more than {threshold:.0}%");
        return Ok(0);
    }
    if !regressions.is_empty() {
        println!("\nbench gate FAILED: {} tracked group(s) regressed:", regressions.len());
        for r in &regressions {
            println!("  {r}");
        }
    }
    if !missing.is_empty() {
        println!(
            "\nbench gate FAILED: {} tracked group(s) missing from this run: {}",
            missing.len(),
            missing.join(", ")
        );
    }
    // Recording a new baseline is allowed to be slower: report, don't fail.
    Ok(if gate { 1 } else { 0 })
}

/// Append a Markdown block to the GitHub Actions step summary, when the
/// runner provides one (`GITHUB_STEP_SUMMARY`); a silent no-op anywhere
/// else, including when the file cannot be written — the summary is a
/// convenience, never the verdict.
fn append_step_summary(markdown: &str) {
    use std::io::Write;
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else { return };
    if path.is_empty() {
        return;
    }
    if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(file, "{markdown}");
    }
}

/// Run `cargo bench -p bench` (both harnesses) with the criterion shim's
/// JSON channel pointed at a scratch file, and parse the emitted lines.
///
/// When the caller already exports `CRITERION_JSON`, the raw stream is
/// written there and *kept* (CI uploads it as a workflow artifact);
/// otherwise a temp file is used and removed after parsing.
fn run_benches() -> Result<BTreeMap<String, Row>, String> {
    let caller_path =
        std::env::var_os("CRITERION_JSON").filter(|p| !p.is_empty()).map(PathBuf::from);
    let keep_raw = caller_path.is_some();
    let json_path = caller_path.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bench-compare-{}.jsonl", std::process::id()))
    });
    // Absolutize before handing the path to the child: cargo runs bench
    // binaries with their cwd at the *package* root (crates/bench), so a
    // relative path like `target/criterion-raw.jsonl` would make the
    // harnesses write one file and this process read another.
    let json_path = if json_path.is_relative() {
        std::env::current_dir()
            .map_err(|e| format!("cannot resolve the working directory: {e}"))?
            .join(json_path)
    } else {
        json_path
    };
    if let Some(parent) = json_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let _ = std::fs::remove_file(&json_path);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    println!("running: {cargo} bench -p bench (CRITERION_JSON={})", json_path.display());
    let status = Command::new(&cargo)
        .args(["bench", "-p", "bench"])
        .env("CRITERION_JSON", &json_path)
        .status()
        .map_err(|e| format!("cannot spawn `{cargo} bench -p bench`: {e}"))?;
    if !status.success() {
        return Err(format!("`{cargo} bench -p bench` failed with {status}"));
    }
    let text = std::fs::read_to_string(&json_path)
        .map_err(|e| format!("harnesses produced no {} ({e})", json_path.display()))?;
    if keep_raw {
        println!("raw CRITERION_JSON stream kept at {}", json_path.display());
    } else {
        let _ = std::fs::remove_file(&json_path);
    }

    let mut rows = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = serde_json::parse_value_from_str(line)
            .map_err(|e| format!("bad CRITERION_JSON line {line:?}: {e}"))?;
        let id = get(&value, "id")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| format!("CRITERION_JSON line without id: {line:?}"))?;
        let ns = |key: &str| {
            get(&value, key)
                .and_then(as_u128)
                .ok_or_else(|| format!("CRITERION_JSON line without {key}: {line:?}"))
        };
        rows.insert(
            id.to_string(),
            Row { mean_ns: ns("mean_ns")?, min_ns: ns("min_ns")?, max_ns: ns("max_ns")? },
        );
    }
    Ok(rows)
}

/// Write a `BENCH_*.json` snapshot in the committed baseline format.
fn write_bench_file(path: &Path, rows: &BTreeMap<String, Row>, cores: usize) -> Result<(), String> {
    let pr = pr_number_of(path);
    let mut out = String::from("{\n");
    if let Some(pr) = pr {
        out.push_str(&format!("  \"pr\": {pr},\n"));
    }
    out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
    out.push_str("  \"command\": \"cargo bench -p bench (recorded by bench_compare)\",\n");
    out.push_str(&format!(
        "  \"host\": {{\n    \"os\": \"{}\",\n    \"cpus_available\": {cores},\n    \"note\": \
         \"outputs are byte-identical at every thread count (tests/determinism.rs); on 1-core \
         hosts the threads=2/4 rows record sharding overhead, not speedup\"\n  }},\n",
        std::env::consts::OS
    ));
    out.push_str(
        "  \"config\": { \"sample_size\": 10, \"scale\": \"bench_scale (TopologyConfig::small + \
         SimConfig::small)\" },\n",
    );
    out.push_str("  \"benches\": {\n");
    let last = rows.len().saturating_sub(1);
    for (i, (id, row)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{id}\": {{ \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}{}\n",
            row.mean_ns,
            row.min_ns,
            row.max_ns,
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The newest committed `BENCH_pr<N>.json` in the working directory,
/// excluding the file this run writes.
fn newest_committed_baseline(exclude: &Path) -> Result<Option<PathBuf>, String> {
    let entries =
        std::fs::read_dir(".").map_err(|e| format!("cannot list working directory: {e}"))?;
    let paths: Vec<PathBuf> = entries
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot list working directory: {e}"))?;
    Ok(newest_baseline_in(&paths, exclude))
}

/// The highest-numbered `BENCH_pr<N>.json` among `paths`, excluding
/// `exclude` (comparing a fresh recording against itself is
/// meaningless). Ordering is by the parsed PR number — numeric, not
/// lexicographic, so `pr10` beats `pr9`.
fn newest_baseline_in(paths: &[PathBuf], exclude: &Path) -> Option<PathBuf> {
    let mut best: Option<(u32, PathBuf)> = None;
    for path in paths {
        if path.file_name() == exclude.file_name() {
            continue;
        }
        let Some(pr) = pr_number_of(path) else { continue };
        if best.as_ref().is_none_or(|(n, _)| pr > *n) {
            best = Some((pr, path.clone()));
        }
    }
    best.map(|(_, path)| path)
}

/// Parse `BENCH_pr<N>.json` out of a path, returning `N`.
fn pr_number_of(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("BENCH_pr")?.strip_suffix(".json")?;
    rest.parse().ok()
}

/// A committed baseline: per-benchmark means plus the core count of the
/// host that recorded it (absent in hand-written files).
struct Baseline {
    means: BTreeMap<String, u128>,
    cpus: Option<u64>,
}

fn read_baseline(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let value = serde_json::parse_value_from_str(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))?;
    let benches = get(&value, "benches")
        .and_then(serde::Value::as_object)
        .ok_or_else(|| format!("baseline {} has no \"benches\" object", path.display()))?;
    let mut means = BTreeMap::new();
    for (id, bench) in benches {
        let mean = get(bench, "mean_ns")
            .and_then(as_u128)
            .ok_or_else(|| format!("baseline bench {id:?} has no mean_ns"))?;
        means.insert(id.clone(), mean);
    }
    let cpus = get(&value, "host")
        .and_then(|host| get(host, "cpus_available"))
        .and_then(as_u128)
        .and_then(|n| u64::try_from(n).ok());
    Ok(Baseline { means, cpus })
}

fn get<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    value.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u128(value: &serde::Value) -> Option<u128> {
    match value {
        serde::Value::U64(n) => Some(u128::from(*n)),
        serde::Value::U128(n) => Some(*n),
        serde::Value::I64(n) => u128::try_from(*n).ok(),
        serde::Value::F64(f) if *f >= 0.0 => Some(*f as u128),
        _ => None,
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm).
fn today_utc() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(names: &[&str]) -> Vec<PathBuf> {
        names.iter().map(PathBuf::from).collect()
    }

    #[test]
    fn gauges_are_recognised_by_id_prefix() {
        assert!(is_gauge("memory/graph_bytes/scale=10k"));
        assert!(is_gauge("memory/graph_map_bytes/scale=50k"));
        assert!(is_gauge("service/latency_p50_ns"));
        assert!(is_gauge("service/latency_p99_ns"));
        assert!(is_gauge("service/throughput_qps"));
        // The timed service rows ARE gated: only the loadgen summaries
        // and byte footprints are exempt.
        assert!(!is_gauge("service/relationship_batch"));
        assert!(!is_gauge("service/customer_tree"));
        assert!(!is_gauge("service/what_if"));
        assert!(!is_gauge("propagate/threads=4"));
        assert!(!is_gauge("pipeline/threads=2"));
    }

    #[test]
    fn pr_numbers_parse_numerically() {
        assert_eq!(pr_number_of(Path::new("BENCH_pr9.json")), Some(9));
        assert_eq!(pr_number_of(Path::new("BENCH_pr10.json")), Some(10));
        assert_eq!(pr_number_of(Path::new("some/dir/BENCH_pr123.json")), Some(123));
        assert_eq!(pr_number_of(Path::new("BENCH_pr.json")), None);
        assert_eq!(pr_number_of(Path::new("BENCH_prX.json")), None);
        assert_eq!(pr_number_of(Path::new("BENCH_pr5.txt")), None);
        assert_eq!(pr_number_of(Path::new("notes.md")), None);
    }

    #[test]
    fn newest_baseline_orders_numerically_not_lexicographically() {
        // Lexicographically "BENCH_pr9.json" > "BENCH_pr10.json"; the
        // selection must use the parsed number.
        let files = paths(&["BENCH_pr9.json", "BENCH_pr10.json", "BENCH_pr2.json"]);
        let newest = newest_baseline_in(&files, Path::new("BENCH_pr11.json"));
        assert_eq!(newest, Some(PathBuf::from("BENCH_pr10.json")));
    }

    #[test]
    fn newest_baseline_skips_the_excluded_file_and_non_matching_names() {
        let files = paths(&[
            "BENCH_pr9.json",
            "BENCH_pr10.json",
            "BENCH_notes.json",
            "README.md",
            "BENCH_pr10.json.bak",
        ]);
        // The file this run writes is never its own baseline, even when it
        // carries the highest number.
        let newest = newest_baseline_in(&files, Path::new("BENCH_pr10.json"));
        assert_eq!(newest, Some(PathBuf::from("BENCH_pr9.json")));
        // Exclusion matches on file name, not the full path.
        let newest = newest_baseline_in(&files, Path::new("./target/BENCH_pr10.json"));
        assert_eq!(newest, Some(PathBuf::from("BENCH_pr9.json")));
        // No candidates at all: no baseline, not an error.
        assert_eq!(newest_baseline_in(&paths(&["x.json"]), Path::new("BENCH_pr1.json")), None);
    }
}

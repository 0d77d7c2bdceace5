//! Shared experiment harness used by the `exp_*` binaries and the
//! Criterion benchmarks.
//!
//! Every experiment of DESIGN.md §4 (E1–E4, F1, F2, A1–A3) has a function
//! here that builds the scenario, runs the relevant part of the pipeline
//! and returns the numbers; the binaries only format them and the benches
//! only time them. Scales:
//!
//! * [`paper_scale`] — roughly the size of the paper's August 2010 IPv6
//!   dataset (thousands of ASes, ~10k IPv6 links); used by the binaries.
//! * [`bench_scale`] — a few hundred ASes; used by Criterion so `cargo
//!   bench` terminates quickly.

use asgraph::customer_tree::customer_tree;
use asgraph::AsGraph;
use bgp_types::{Asn, IpVersion};
use hybrid_tor::baselines::{gao_inference, BaselineInput, InferenceAccuracy};
use hybrid_tor::hybrid::HybridFinding;
use hybrid_tor::impact::SweepOptions;
use hybrid_tor::ingest::{TemporalSweep, UpdateStream, WindowOutcome};
use hybrid_tor::pipeline::{Pipeline, PipelineInput, PipelineOptions};
use hybrid_tor::report::Report;
use routesim::{Scenario, SimConfig, UpdateStreamConfig};
use topogen::fixtures::figure1_topology;
use topogen::TopologyConfig;

/// Parse a worker-count knob: unset or empty (after trimming) means
/// `default`; anything else must be a plain non-negative integer.
/// Malformed values — `"2x"`, `"-1"`, `"two"` — are a hard error naming
/// the variable and the offending value, instead of the old behaviour of
/// silently falling back to the default (which made a typo'd
/// `HYBRID_THREADS=2x` run an all-cores measurement labelled as 2
/// threads).
fn parse_count_knob(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(default),
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            format!("{name} must be a non-negative integer (0 = all cores), got {raw:?}")
        }),
    }
}

/// Parse the adversarial-scenario knob: unset or empty means the classic
/// (well-behaved) policy; otherwise only `classic`, `leak`,
/// `prefix-hijack` and `subprefix-hijack` (case-insensitive) are
/// accepted. Unlike the worker-count knob above this one *changes the
/// routes* — and therefore the report — but it must stay invisible to
/// worker counts.
fn parse_scenario_knob(
    name: &str,
    value: Option<&str>,
) -> Result<routesim::PolicyScenario, String> {
    use routesim::PolicyScenario;
    match value.map(str::trim) {
        None | Some("") => Ok(PolicyScenario::Classic),
        Some(raw) if raw.eq_ignore_ascii_case("classic") => Ok(PolicyScenario::Classic),
        Some(raw) if raw.eq_ignore_ascii_case("leak") => Ok(PolicyScenario::RouteLeak),
        Some(raw) if raw.eq_ignore_ascii_case("prefix-hijack") => Ok(PolicyScenario::PrefixHijack),
        Some(raw) if raw.eq_ignore_ascii_case("subprefix-hijack") => {
            Ok(PolicyScenario::SubprefixHijack)
        }
        Some(raw) => Err(format!(
            "{name} must be \"classic\", \"leak\", \"prefix-hijack\" or \"subprefix-hijack\", \
             got {raw:?}"
        )),
    }
}

/// Read `name` from the environment and hand it to `parse`, turning a
/// parse error into a panic with the parser's message — a malformed knob
/// should stop an experiment run loudly, not silently mislabel it.
fn env_knob<T>(name: &str, parse: impl Fn(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var(name).ok();
    parse(value.as_deref()).unwrap_or_else(|message| panic!("{message}"))
}

/// Parse a socket-address knob: unset or empty means `default`; anything
/// else must be a literal `ip:port` address (`127.0.0.1:7411`,
/// `[::1]:7411`). Hostnames are rejected — resolution is environment-
/// dependent, and a typo'd `HYBRID_ADDR=localhost:7411x` must stop the
/// daemon loudly rather than bind somewhere surprising.
fn parse_addr_knob(
    name: &str,
    value: Option<&str>,
    default: &str,
) -> Result<std::net::SocketAddr, String> {
    let raw = match value.map(str::trim) {
        None | Some("") => default,
        Some(raw) => raw,
    };
    raw.parse::<std::net::SocketAddr>().map_err(|_| {
        format!("{name} must be a literal ip:port address like \"127.0.0.1:7411\", got {raw:?}")
    })
}

/// The `HYBRID_*` variables [`ExecKnobs::from_env`] reads; any other
/// `HYBRID_*` name in the environment is a hard error.
const KNOBS: [&str; 3] = ["HYBRID_THREADS", "HYBRID_SCENARIO", "HYBRID_ADDR"];

/// Check environment variable names against [`KNOBS`]: a `HYBRID_*` name
/// that is not a knob — a leftover from an older build (`HYBRID_BATCH=1`)
/// or a typo (`HYBRID_THREAD=2`) — is an error naming it and the known
/// knobs, instead of being ignored without a word.
fn check_knob_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    match names.into_iter().find(|name| name.starts_with("HYBRID_") && !KNOBS.contains(name)) {
        None => Ok(()),
        Some(name) => {
            Err(format!("{name} is not a knob; the known knobs are {}", KNOBS.join(", ")))
        }
    }
}

/// Every `HYBRID_*` knob the experiment bins, the resident daemon and the
/// load generator honour, resolved once by [`ExecKnobs::from_env`] with
/// strict parsers. `concurrency` is byte-invisible in every report;
/// `scenario` is an **output** knob that changes the routes — but still
/// byte-identically at every worker count. Every other execution choice
/// (origin schedule, graph backend, sweep removal policy) runs at its
/// library default.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecKnobs {
    /// `HYBRID_THREADS` — worker threads for scenario building, the
    /// pipeline and the sweeps: `0` (the default) = all available cores,
    /// `1` = the sequential path, consistently with
    /// `SimConfig::concurrency` and `PipelineOptions::concurrency`.
    pub concurrency: usize,
    /// `HYBRID_SCENARIO` — the adversarial scenario propagation runs
    /// under: `classic` (the default), `leak`, `prefix-hijack` or
    /// `subprefix-hijack`. An **output** knob.
    pub scenario: routesim::PolicyScenario,
    /// `HYBRID_ADDR` — the address the resident daemon binds (default
    /// `127.0.0.1:7411`; port `0` asks the OS for a free port). Literal
    /// `ip:port` only — hostnames are rejected.
    pub addr: std::net::SocketAddr,
}

impl Default for ExecKnobs {
    fn default() -> Self {
        ExecKnobs {
            concurrency: 0,
            scenario: routesim::PolicyScenario::Classic,
            addr: "127.0.0.1:7411".parse().expect("literal address"),
        }
    }
}

impl ExecKnobs {
    /// Resolve every knob from the environment. A malformed value or an
    /// unknown `HYBRID_*` variable is a hard panic naming the variable —
    /// an experiment run must stop loudly, not silently mislabel itself.
    pub fn from_env() -> Self {
        let names: Vec<String> =
            std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()).collect();
        check_knob_names(names.iter().map(String::as_str))
            .unwrap_or_else(|message| panic!("{message}"));
        ExecKnobs {
            concurrency: env_knob("HYBRID_THREADS", |v| parse_count_knob("HYBRID_THREADS", v, 0)),
            scenario: env_knob("HYBRID_SCENARIO", |v| parse_scenario_knob("HYBRID_SCENARIO", v)),
            addr: env_knob("HYBRID_ADDR", |v| parse_addr_knob("HYBRID_ADDR", v, "127.0.0.1:7411")),
        }
    }

    /// The worker count these knobs actually run with — `concurrency`
    /// resolved against the host (`0` = all cores).
    pub fn threads(&self) -> usize {
        routesim::effective_concurrency(self.concurrency)
    }

    /// The sweep execution options these knobs resolve to: `concurrency`
    /// workers on the default (conservative) removal tier.
    pub fn sweep(&self) -> SweepOptions {
        SweepOptions::with_concurrency(self.concurrency)
    }

    /// The pipeline the resident service builds its snapshot with: the
    /// default measurement pipeline under these execution options —
    /// exactly what [`run_measurement`] runs, exposed as a value so
    /// `hybridd` and `loadgen --check` construct provably the same
    /// pipeline.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline { options: PipelineOptions::from(self), ..Default::default() }
    }

    /// `sim` with the worker and scenario knobs written into their
    /// `SimConfig` fields; every other field (seeds, probabilities,
    /// defensive deployment, origin sampling, schedule) is kept. Every scenario the harness builds — including the
    /// per-rate/per-collector rebuilds inside [`coverage_sweep`] and
    /// [`collector_sensitivity`] — goes through this.
    pub fn sim(&self, sim: &SimConfig) -> SimConfig {
        SimConfig { concurrency: self.concurrency, policy_scenario: self.scenario, ..sim.clone() }
    }
}

/// The single place the knob struct becomes pipeline execution options,
/// sweep settings included; the daemon takes its worker count from
/// [`ExecKnobs::threads`] and its address from `addr`.
impl From<&ExecKnobs> for PipelineOptions {
    fn from(knobs: &ExecKnobs) -> PipelineOptions {
        PipelineOptions {
            concurrency: knobs.concurrency,
            sweep: knobs.sweep(),
            policy_scenario: knobs.scenario,
            ..PipelineOptions::default()
        }
    }
}

/// Record a non-timing gauge (bytes, counts, rates) into the
/// `CRITERION_JSON` channel, one JSONL row in the criterion shim's shape,
/// so `bench_compare --record` folds it into the committed BENCH snapshot
/// next to the timing rows — the `*_ns` fields carry the gauge value
/// verbatim and the id says what the unit really is. Gauge ids (see
/// `bench_compare`'s `is_gauge`) are reported but exempt from the
/// wall-clock regression gate.
pub fn record_gauge(id: &str, value: u128) {
    use std::io::Write;
    let Some(path) = std::env::var_os("CRITERION_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let line =
        format!("{{\"id\":\"{id}\",\"mean_ns\":{value},\"min_ns\":{value},\"max_ns\":{value}}}\n");
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Topology/simulation configuration pair.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Topology generator configuration.
    pub topology: TopologyConfig,
    /// Simulator configuration.
    pub sim: SimConfig,
}

/// The scale used by the experiment binaries: comparable (in order of
/// magnitude) to the paper's 2010 IPv6 snapshot.
pub fn paper_scale() -> ExperimentScale {
    ExperimentScale { topology: TopologyConfig::default(), sim: SimConfig::default() }
}

/// A much smaller scale for Criterion runs and quick smoke tests.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale { topology: TopologyConfig::small(), sim: SimConfig::small() }
}

/// An even smaller scale for unit tests of the harness itself and the
/// `exp-smoke` CI goldens (`--tiny` on every experiment binary).
pub fn tiny_scale() -> ExperimentScale {
    ExperimentScale { topology: TopologyConfig::tiny(), sim: SimConfig::small() }
}

/// An internet-shaped scale: a CAIDA-shaped topology at `topology`'s AS
/// count with origin sampling striding every `origin_sample`-th origin,
/// which is what keeps a 100k-AS pipeline in the seconds range (every
/// sampled origin still floods the full graph, so the traversal layers
/// are exercised at true scale — only the RIB volume is thinned).
fn internet_scale(topology: TopologyConfig, origin_sample: usize) -> ExperimentScale {
    ExperimentScale { topology, sim: SimConfig::default().with_origin_sample(origin_sample) }
}

/// The 10,000-AS internet scale (`--scale 10k`).
pub fn internet_10k_scale() -> ExperimentScale {
    internet_scale(TopologyConfig::internet_10k(), 32)
}

/// The 50,000-AS internet scale (`--scale 50k`).
pub fn internet_50k_scale() -> ExperimentScale {
    internet_scale(TopologyConfig::internet_50k(), 128)
}

/// The 100,000-AS internet scale (`--scale 100k`).
pub fn internet_100k_scale() -> ExperimentScale {
    internet_scale(TopologyConfig::internet_100k(), 256)
}

/// One `--scale` value resolved to its preset.
fn parse_scale_value(value: &str) -> Result<ExperimentScale, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "10k" => Ok(internet_10k_scale()),
        "50k" => Ok(internet_50k_scale()),
        "100k" => Ok(internet_100k_scale()),
        other => Err(format!("--scale must be 10k, 50k or 100k, got {other:?}")),
    }
}

/// The scale an experiment binary should run at, parsed from its
/// argument list (argv without the binary name): `--tiny` (the
/// `exp-smoke` golden scale), `--small` ([`bench_scale`]), `--scale
/// 10k|50k|100k` (also spelled `--scale=10k`) for the internet-shaped
/// presets, default [`paper_scale`]. One shared parser so the nine bins
/// cannot drift apart on flag spelling or precedence (the smallest
/// requested scale wins, so CI can append `--tiny` to anything).
///
/// Any unrecognized `--flag` is a hard error naming the flag: the old
/// parser scanned for known flags and ignored everything else, so a
/// typo'd `--tinny` silently ran the multi-minute paper scale the smoke
/// job thought it had skipped. Non-flag positionals are still tolerated.
pub fn scale_from_argv<I, S>(args: I) -> Result<ExperimentScale, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_string()).collect();
    let mut tiny = false;
    let mut small = false;
    let mut scale = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--tiny" {
            tiny = true;
        } else if arg == "--small" {
            small = true;
        } else if arg == "--scale" {
            i += 1;
            // Missing value is a hard error naming the flag — both when
            // `--scale` is the final token and when the next token is
            // another `--flag` (which would otherwise be swallowed as the
            // value and rejected with a misleading message).
            let value = args
                .get(i)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| "--scale needs a value: 10k, 50k or 100k".to_string())?;
            scale = Some(parse_scale_value(value)?);
        } else if let Some(value) = arg.strip_prefix("--scale=") {
            scale = Some(parse_scale_value(value)?);
        } else if arg.starts_with("--") {
            return Err(format!(
                "unrecognized flag {arg:?}; known flags: --tiny, --small, --scale {{10k,50k,100k}}"
            ));
        }
        i += 1;
    }
    Ok(if tiny {
        tiny_scale()
    } else if small {
        bench_scale()
    } else if let Some(scale) = scale {
        scale
    } else {
        paper_scale()
    })
}

/// [`scale_from_argv`] over the process's own command line, panicking on
/// a malformed flag — an experiment binary should refuse to run (and say
/// why) rather than silently measure a scale nobody asked for.
pub fn scale_from_args() -> ExperimentScale {
    scale_from_argv(std::env::args().skip(1)).unwrap_or_else(|message| panic!("{message}"))
}

/// Build the scenario for a scale under the `HYBRID_*` execution and
/// scenario knobs.
pub fn build_scenario(scale: &ExperimentScale) -> Scenario {
    Scenario::build(&scale.topology, &ExecKnobs::from_env().sim(&scale.sim))
}

/// E1/E2/E3/E4 + A1: run the full measurement pipeline (without the
/// Figure 2 sweep) and return the report. Honours `HYBRID_THREADS`.
pub fn run_measurement(scenario: &Scenario) -> Report {
    let pipeline = ExecKnobs::from_env().pipeline();
    pipeline.run(PipelineInput::from_scenario_with(scenario, &pipeline.options))
}

/// G1/G2: synthesise a deterministic update stream over the scenario and
/// replay it window by window with a [`TemporalSweep`].
///
/// The stream is [`UpdateStreamConfig::default`] (4 windows of 24 events);
/// `incremental` selects delta-repaired replay or the full per-window
/// recompute. Both modes — and every worker count — produce
/// byte-identical per-window reports; the determinism matrix and the
/// golden snapshots pin that, which is why the G-series bins can be
/// goldens like any other.
pub fn run_temporal(scenario: &Scenario, incremental: bool) -> Vec<WindowOutcome> {
    let stream = UpdateStream::from_windows(scenario.update_stream(&UpdateStreamConfig::default()));
    let pipeline = ExecKnobs::from_env().pipeline();
    let base = scenario.pooled_snapshot(pipeline.options.workers());
    let dictionary = scenario.registry.build_dictionary();
    TemporalSweep::new(pipeline, incremental).run(
        &base,
        &dictionary,
        Some(&scenario.truth),
        &stream,
    )
}

/// F2: run the measurement including the customer-tree correction sweep.
///
/// `source_cap` bounds the all-pairs computation; `None` is exact and is
/// what the paper-scale binary uses. Honours `HYBRID_THREADS`, and asks
/// the pipeline for the sweep's execution statistics so the bins can
/// print cache/delta effectiveness.
pub fn run_measurement_with_impact(
    scenario: &Scenario,
    top_k: usize,
    source_cap: Option<usize>,
) -> Report {
    let pipeline = Pipeline {
        options: PipelineOptions::from(&ExecKnobs::from_env()),
        emit_sweep_stats: true,
        ..Pipeline::with_impact(top_k, source_cap)
    };
    pipeline.run(PipelineInput::from_scenario_with(scenario, &pipeline.options))
}

/// F1: the Figure 1 example — the customer tree of AS1 under the two
/// variants of the 1-2 link. Returns (tree when p2c, tree when p2p).
pub fn figure1_customer_trees() -> (Vec<Asn>, Vec<Asn>) {
    let transit = figure1_topology(true);
    let peering = figure1_topology(false);
    (customer_tree(&transit, Asn(1), IpVersion::V6), customer_tree(&peering, Asn(1), IpVersion::V6))
}

/// One sweep point: the scale's scenario with `patch` applied to its
/// configuration (after the environment's knobs), built from scratch.
fn sweep_point(scale: &ExperimentScale, patch: impl FnOnce(&mut SimConfig)) -> Scenario {
    let mut sim = ExecKnobs::from_env().sim(&scale.sim);
    patch(&mut sim);
    Scenario::build(&scale.topology, &sim)
}

/// A2: coverage as a function of the IRR documentation rate.
/// Returns `(documentation_rate, ipv6_coverage, dual_stack_coverage)` rows.
///
/// Each rate is a full scenario build with only the documentation rate
/// patched. Documentation reaches only the registry and the per-AS
/// policies, so the routes are the same at every point.
pub fn coverage_sweep(scale: &ExperimentScale, rates: &[f64]) -> Vec<(f64, f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let scenario = sweep_point(scale, |sim| sim.documentation_probability = rate);
            let report = run_measurement(&scenario);
            (rate, report.dataset.ipv6_coverage(), report.dataset.dual_stack_coverage())
        })
        .collect()
}

/// A3: hybrid detection as a function of the number of collectors.
/// Returns `(collectors, detected_hybrids, hybrid_fraction, ipv6_links)` rows.
///
/// Like [`coverage_sweep`], each collector count is a full build with one
/// knob patched: what the collectors *see* changes, what the Internet
/// *routes* does not.
pub fn collector_sensitivity(
    scale: &ExperimentScale,
    collector_counts: &[usize],
) -> Vec<(usize, usize, f64, usize)> {
    collector_counts
        .iter()
        .map(|&count| {
            let scenario = sweep_point(scale, |sim| sim.collector_count = count);
            let report = run_measurement(&scenario);
            (
                count,
                report.hybrids.findings.len(),
                report.hybrids.hybrid_fraction(),
                report.dataset.ipv6_links,
            )
        })
        .collect()
}

/// The adversarial scenarios the distortion experiment iterates over, in
/// display order (classic first, as the undistorted reference row).
pub const ADVERSARIAL_SCENARIOS: [routesim::PolicyScenario; 4] = [
    routesim::PolicyScenario::Classic,
    routesim::PolicyScenario::RouteLeak,
    routesim::PolicyScenario::PrefixHijack,
    routesim::PolicyScenario::SubprefixHijack,
];

/// One row of [`leak_distortion`]: what the inference pipeline sees when
/// the simulated Internet misbehaves under `scenario` with no defensive
/// deployment.
#[derive(Debug, Clone)]
pub struct ScenarioDistortion {
    /// The scenario this row propagated under (deployment pinned to 0).
    pub scenario: routesim::PolicyScenario,
    /// Gao baseline accuracy against ground truth on the IPv4 plane.
    pub baseline_v4: InferenceAccuracy,
    /// Gao baseline accuracy against ground truth on the IPv6 plane.
    pub baseline_v6: InferenceAccuracy,
    /// Hybrid links the pipeline detected.
    pub hybrids_detected: usize,
    /// Detected hybrids whose relationship pair matches the ground truth
    /// (the precision numerator; under the classic scenario communities
    /// never lie, so every detection is correct).
    pub hybrids_correct: usize,
    /// Valley fraction of classifiable IPv6 paths.
    pub valley_fraction: f64,
}

impl ScenarioDistortion {
    /// Fraction of detected hybrids that agree with the ground truth
    /// (`1.0` when nothing was detected — no detections, no errors).
    pub fn hybrid_precision(&self) -> f64 {
        if self.hybrids_detected == 0 {
            1.0
        } else {
            self.hybrids_correct as f64 / self.hybrids_detected as f64
        }
    }
}

/// Adversarial distortion experiment: run the full inference pipeline
/// against every [`ADVERSARIAL_SCENARIOS`] member (undefended —
/// deployment 0) and measure how far the inferred relationships drift
/// from the ground truth. The rows pin `policy_scenario` and
/// `policy_deployment` explicitly, so the output is identical whatever
/// `HYBRID_SCENARIO` says — the bin *is* the sweep.
pub fn leak_distortion(scale: &ExperimentScale) -> Vec<ScenarioDistortion> {
    ADVERSARIAL_SCENARIOS
        .iter()
        .map(|&scenario_kind| {
            let scenario = sweep_point(scale, |sim| {
                sim.policy_scenario = scenario_kind;
                sim.policy_deployment = 0.0;
            });
            let report = run_measurement(&scenario);
            let hybrids_correct = report
                .hybrids
                .findings
                .iter()
                .filter(|f| scenario.truth.relationship_pair(f.a, f.b) == Some(f.relationships))
                .count();
            ScenarioDistortion {
                scenario: scenario_kind,
                baseline_v4: report.baseline_accuracy_v4.expect("simulated runs carry truth"),
                baseline_v6: report.baseline_accuracy_v6.expect("simulated runs carry truth"),
                hybrids_detected: report.hybrids.findings.len(),
                hybrids_correct,
                valley_fraction: report.valleys.valley_fraction(),
            }
        })
        .collect()
}

/// One row of [`rov_sweep`]: the pipeline's view of an attacked Internet
/// at a given defensive-deployment fraction.
#[derive(Debug, Clone)]
pub struct DeploymentImpact {
    /// The attack this row propagated under.
    pub scenario: routesim::PolicyScenario,
    /// Fraction of ASes deploying the scenario's defence (ROV against
    /// hijacks, ASPA-lite against leaks).
    pub fraction: f64,
    /// Gao baseline accuracy against ground truth on the IPv6 plane.
    pub baseline_v6: InferenceAccuracy,
    /// Hybrid links the pipeline detected.
    pub hybrids_detected: usize,
    /// Valley fraction of classifiable IPv6 paths.
    pub valley_fraction: f64,
    /// Average valley-free path change after the Figure 2 correction
    /// sweep (negative = corrections shorten paths).
    pub avg_path_delta: f64,
    /// Diameter change after the correction sweep.
    pub diameter_delta: i64,
}

/// Defensive-deployment sweep: for each attack scenario, propagate at
/// every deployment fraction in `fractions` and measure inference
/// distortion plus the correction sweep's impact. Like
/// [`leak_distortion`], every row pins the scenario knobs explicitly, so
/// the environment cannot leak into the output.
pub fn rov_sweep(scale: &ExperimentScale, fractions: &[f64]) -> Vec<DeploymentImpact> {
    let attacks = [routesim::PolicyScenario::SubprefixHijack, routesim::PolicyScenario::RouteLeak];
    let mut rows = Vec::with_capacity(attacks.len() * fractions.len());
    for &attack in &attacks {
        for &fraction in fractions {
            let scenario = sweep_point(scale, |sim| {
                sim.policy_scenario = attack;
                sim.policy_deployment = fraction;
            });
            let report = run_measurement_with_impact(&scenario, 5, Some(64));
            let curve = report.impact.expect("impact sweep requested");
            rows.push(DeploymentImpact {
                scenario: attack,
                fraction,
                baseline_v6: report.baseline_accuracy_v6.expect("simulated runs carry truth"),
                hybrids_detected: report.hybrids.findings.len(),
                valley_fraction: report.valleys.valley_fraction(),
                avg_path_delta: curve.avg_path_delta(),
                diameter_delta: curve.diameter_delta(),
            });
        }
    }
    rows
}

/// Everything the Figure 2 correction sweep consumes, precomputed from a
/// scenario: the plane-blind misinferred graph and the detected hybrid
/// findings (sorted by descending IPv6 path visibility). Used by the
/// `sweep/*` criterion group and the bench gate so they time exactly the
/// sweep, not the surrounding pipeline.
pub fn sweep_inputs(scenario: &Scenario) -> (AsGraph, Vec<HybridFinding>) {
    let snapshot = scenario.merged_snapshot();
    let data = hybrid_tor::extract::extract(&snapshot);
    let dictionary = scenario.registry.build_dictionary();
    let inference =
        hybrid_tor::communities::CommunityInference::from_snapshot(&snapshot, &dictionary);
    let baseline = gao_inference(&data, BaselineInput::BothPlanes);
    let misinferred = hybrid_tor::impact::plane_blind_annotation_with(
        &data.graph,
        &inference,
        &baseline,
        ExecKnobs::from_env().concurrency,
    );
    let hybrids = hybrid_tor::hybrid::detect_hybrids(&data, &inference).findings;
    (misinferred, hybrids)
}

/// Render a simple two-column table for the binaries' stdout.
pub fn format_rows(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_consistent_report() {
        let scenario = build_scenario(&tiny_scale());
        let report = run_measurement(&scenario);
        assert!(report.dataset.ipv6_paths > 0);
        assert!(report.dataset.ipv6_coverage() > 0.0);
        assert!(report.baseline_accuracy_v6.is_some());
    }

    #[test]
    fn figure1_trees_match_the_paper() {
        let (transit, peering) = figure1_customer_trees();
        assert_eq!(transit, vec![Asn(2), Asn(3), Asn(4), Asn(5)]);
        assert_eq!(peering, vec![Asn(3)]);
    }

    #[test]
    fn coverage_sweep_is_monotone_in_documentation_rate() {
        let rows = coverage_sweep(&tiny_scale(), &[0.0, 0.5, 1.0]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1 <= rows[2].1, "coverage should grow with documentation: {rows:?}");
        assert_eq!(rows[0].1, 0.0, "no documentation, no community coverage");
    }

    #[test]
    fn collector_sensitivity_rows_have_requested_counts() {
        let rows = collector_sensitivity(&tiny_scale(), &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[1].0, 2);
        assert!(rows[1].3 >= rows[0].3, "more collectors see at least as many links");
    }

    #[test]
    fn impact_measurement_includes_a_curve() {
        let scenario = build_scenario(&tiny_scale());
        let report = run_measurement_with_impact(&scenario, 3, Some(64));
        let curve = report.impact.unwrap();
        assert!(!curve.steps.is_empty());
    }

    #[test]
    fn format_rows_aligns_columns() {
        let table = format_rows(
            &["k", "value"],
            &[vec!["1".into(), "short".into()], vec!["20".into(), "much longer".into()]],
        );
        assert!(table.contains("k "));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn env_helpers_resolve_sensibly() {
        let knobs = ExecKnobs::from_env();
        assert!(knobs.threads() >= 1, "resolved worker count is at least one");
        assert_eq!(knobs.sweep().concurrency, knobs.concurrency);
    }

    #[test]
    fn readme_knob_table_lists_exactly_the_knobs_from_env_reads() {
        // The library half of this file only: this test names knobs too.
        let source = include_str!("lib.rs");
        let library = &source[..source.find("#[cfg(test)]").expect("a test module")];
        let mut read: Vec<String> = library
            .split("env_knob(\"HYBRID_")
            .skip(1)
            .map(|rest| format!("HYBRID_{}", rest.split('"').next().expect("a closing quote")))
            .collect();
        read.sort();

        let readme = include_str!("../../../README.md");
        let mut rows = readme.lines().skip_while(|line| !line.starts_with("| knob | env |"));
        assert!(rows.next().is_some(), "README has a knob table");
        let mut documented: Vec<String> = rows
            .take_while(|line| line.starts_with('|'))
            .filter(|line| !line.starts_with("|---"))
            .map(|line| {
                let env = line.split('|').nth(2).expect("an env column");
                env.trim().trim_matches('`').to_string()
            })
            .collect();
        documented.sort();

        assert!(!read.is_empty(), "the scan found no env_knob call");
        assert_eq!(documented, read, "README knob table vs ExecKnobs::from_env");
        let mut known = KNOBS.to_vec();
        known.sort();
        assert_eq!(known, read, "KNOBS vs ExecKnobs::from_env");

        // A deleted knob must not stay behind in a job's environment or in
        // the smoke test's child environment.
        for (file, text) in [
            ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
            ("exp_smoke.rs", include_str!("../tests/exp_smoke.rs")),
        ] {
            for rest in text.split("HYBRID_").skip(1) {
                let suffix: String =
                    rest.chars().take_while(|c| c.is_ascii_uppercase() || *c == '_').collect();
                let name = format!("HYBRID_{suffix}");
                assert!(suffix.is_empty() || read.contains(&name), "{file} names {name}");
            }
        }
    }

    #[test]
    fn unknown_hybrid_variables_are_a_hard_error_naming_the_known_knobs() {
        assert_eq!(check_knob_names([]), Ok(()));
        assert_eq!(check_knob_names(["PATH", "HYBRID_THREADS", "HYBRID_SCENARIO"]), Ok(()));
        assert_eq!(check_knob_names(["HYBRID_ADDR", "NOT_HYBRID_BATCH"]), Ok(()));
        for bad in ["HYBRID_BATCH", "HYBRID_THREAD", "HYBRID_THREADS_2", "HYBRID_"] {
            let err = check_knob_names(["HYBRID_THREADS", bad])
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(bad), "message names the variable: {err}");
            for knob in KNOBS {
                assert!(err.contains(knob), "message lists the known knobs: {err}");
            }
        }
    }

    #[test]
    fn each_exec_knob_lands_in_its_one_consumer_field() {
        use routesim::PolicyScenario;
        type Expect = fn(&mut SimConfig, &mut PipelineOptions);
        let base = ExecKnobs::default();
        let preset = SimConfig::small();
        // Each row sets one knob off its default and names the fields it
        // must change; everything else in the simulator configuration and
        // the pipeline options must stay at the all-default resolution.
        let cases: [(&str, ExecKnobs, Expect); 3] = [
            ("concurrency", ExecKnobs { concurrency: 3, ..base.clone() }, |sim, options| {
                sim.concurrency = 3;
                options.concurrency = 3;
                options.sweep.concurrency = 3;
            }),
            (
                "scenario",
                ExecKnobs { scenario: PolicyScenario::RouteLeak, ..base.clone() },
                |sim, options| {
                    sim.policy_scenario = PolicyScenario::RouteLeak;
                    options.policy_scenario = PolicyScenario::RouteLeak;
                },
            ),
            // The service knob never reaches either struct.
            (
                "addr",
                ExecKnobs { addr: "127.0.0.1:0".parse().expect("literal address"), ..base.clone() },
                |_, _| {},
            ),
        ];
        assert_eq!(
            base.pipeline().options,
            PipelineOptions::default(),
            "default knobs resolve to the library defaults"
        );
        for (knob, knobs, expect) in cases {
            assert_ne!(knobs, base, "{knob}: the row must move its knob off the default");
            let mut sim = base.sim(&preset);
            let mut options = base.pipeline().options;
            expect(&mut sim, &mut options);
            assert_eq!(knobs.sim(&preset), sim, "{knob}");
            assert_eq!(knobs.pipeline().options, options, "{knob}");
            assert_eq!(knobs.sweep(), options.sweep, "{knob}");
        }
    }

    #[test]
    fn default_knobs_leave_every_preset_unchanged_but_its_worker_count() {
        let presets = [
            ("tiny", tiny_scale()),
            ("small", bench_scale()),
            ("paper", paper_scale()),
            ("10k", internet_10k_scale()),
            ("50k", internet_50k_scale()),
            ("100k", internet_100k_scale()),
        ];
        for (name, preset) in presets {
            for concurrency in [0usize, 1, 2] {
                let knobs = ExecKnobs { concurrency, ..Default::default() };
                let expected = SimConfig { concurrency, ..preset.sim.clone() };
                assert_eq!(knobs.sim(&preset.sim), expected, "{name} concurrency={concurrency}");
            }
        }
    }

    // The knob parsers are pure functions over `Option<&str>` so these
    // tests never mutate the process environment (env mutation races
    // against the parallel test harness and against the helpers above).

    #[test]
    fn count_knobs_accept_integers_and_default_when_absent() {
        assert_eq!(parse_count_knob("HYBRID_THREADS", None, 0), Ok(0));
        assert_eq!(parse_count_knob("HYBRID_THREADS", Some(""), 0), Ok(0));
        assert_eq!(parse_count_knob("HYBRID_THREADS", Some("  "), 0), Ok(0));
        assert_eq!(parse_count_knob("HYBRID_THREADS", Some("2"), 0), Ok(2));
        assert_eq!(parse_count_knob("HYBRID_THREADS", Some(" 8 "), 0), Ok(8));
    }

    #[test]
    fn malformed_count_knobs_are_a_hard_error_with_a_clear_message() {
        for bad in ["2x", "-1", "two", "1.5", "0x2"] {
            let err = parse_count_knob("HYBRID_THREADS", Some(bad), 0)
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("HYBRID_THREADS"), "message names the variable: {err}");
            assert!(err.contains(bad), "message quotes the value: {err}");
            assert!(err.contains("non-negative integer"), "message says what is legal: {err}");
        }
    }

    #[test]
    fn scale_from_argv_defaults_to_paper_scale() {
        let scale = scale_from_argv(Vec::<String>::new()).expect("empty argv is fine");
        assert_eq!(
            scale.topology.total_as_count(),
            paper_scale().topology.total_as_count(),
            "no flag means paper scale"
        );
        assert!(tiny_scale().topology.total_as_count() < bench_scale().topology.total_as_count());
        // Non-flag positionals (the binary path cargo forwards, stray
        // filenames) never change the scale and never error.
        let scale = scale_from_argv(["target/release/exp_e1_dataset", "out.json"])
            .expect("positionals are tolerated");
        assert_eq!(scale.topology.total_as_count(), paper_scale().topology.total_as_count());
    }

    #[test]
    fn scale_flag_selects_the_internet_presets() {
        for (argv, total, sample) in [
            (vec!["--scale", "10k"], 10_000, 32),
            (vec!["--scale=50k"], 50_000, 128),
            (vec!["--scale", "100K"], 100_000, 256),
        ] {
            let scale = scale_from_argv(argv.clone()).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            assert_eq!(scale.topology.total_as_count(), total, "{argv:?}");
            assert!(scale.topology.allow_32bit_asns, "internet presets cross 16-bit space");
            assert_eq!(scale.sim.origin_sample, sample, "{argv:?} strides origins");
        }
    }

    #[test]
    fn unknown_flags_are_a_hard_error_naming_the_flag() {
        // The regression this guards: `--tinny` used to be silently
        // ignored, so the smoke job ran the full paper scale.
        let err = scale_from_argv(["--tinny"]).expect_err("typo must be rejected");
        assert!(err.contains("--tinny"), "message names the flag: {err}");
        assert!(err.contains("--tiny"), "message lists the legal flags: {err}");

        let err = scale_from_argv(["--scale", "10k", "--verbose"]).unwrap_err();
        assert!(err.contains("--verbose"), "later flags are still checked: {err}");

        let err = scale_from_argv(["--scale", "1k"]).expect_err("bad value rejected");
        assert!(err.contains("1k") && err.contains("100k"), "{err}");

        let err = scale_from_argv(["--scale"]).expect_err("missing value rejected");
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn scale_missing_value_is_a_hard_error_naming_the_flag() {
        // Final-token case: `--scale` with nothing after it.
        let err = scale_from_argv(["--tiny", "--scale"]).expect_err("missing value rejected");
        assert!(err.contains("--scale"), "message names the flag: {err}");
        assert!(err.contains("10k"), "message lists the legal values: {err}");
        // Followed-by-a-flag case: `--scale --tiny` must be treated as a
        // missing value, not as the (nonsense) value "--tiny".
        let err = scale_from_argv(["--scale", "--tiny"]).expect_err("flag is not a value");
        assert!(err.contains("--scale") && err.contains("10k"), "{err}");
        assert!(!err.contains("got"), "this is a missing value, not a bad one: {err}");
    }

    #[test]
    fn scenario_knob_parses_all_scenarios_and_rejects_everything_else() {
        use routesim::PolicyScenario;
        assert_eq!(parse_scenario_knob("HYBRID_SCENARIO", None), Ok(PolicyScenario::Classic));
        assert_eq!(parse_scenario_knob("HYBRID_SCENARIO", Some("")), Ok(PolicyScenario::Classic));
        assert_eq!(
            parse_scenario_knob("HYBRID_SCENARIO", Some("classic")),
            Ok(PolicyScenario::Classic)
        );
        assert_eq!(
            parse_scenario_knob("HYBRID_SCENARIO", Some(" Leak ")),
            Ok(PolicyScenario::RouteLeak)
        );
        assert_eq!(
            parse_scenario_knob("HYBRID_SCENARIO", Some("prefix-hijack")),
            Ok(PolicyScenario::PrefixHijack)
        );
        assert_eq!(
            parse_scenario_knob("HYBRID_SCENARIO", Some("SUBPREFIX-HIJACK")),
            Ok(PolicyScenario::SubprefixHijack)
        );
        let err = parse_scenario_knob("HYBRID_SCENARIO", Some("hijack")).unwrap_err();
        assert!(err.contains("HYBRID_SCENARIO") && err.contains("hijack"), "{err}");
        assert!(err.contains("subprefix-hijack"), "message lists the legal values: {err}");
    }

    #[test]
    fn addr_knob_accepts_literal_addresses_and_defaults_when_absent() {
        let default = "127.0.0.1:7411".parse().unwrap();
        assert_eq!(parse_addr_knob("HYBRID_ADDR", None, "127.0.0.1:7411"), Ok(default));
        assert_eq!(parse_addr_knob("HYBRID_ADDR", Some(""), "127.0.0.1:7411"), Ok(default));
        assert_eq!(parse_addr_knob("HYBRID_ADDR", Some("  "), "127.0.0.1:7411"), Ok(default));
        assert_eq!(
            parse_addr_knob("HYBRID_ADDR", Some(" 127.0.0.1:0 "), "127.0.0.1:7411"),
            Ok("127.0.0.1:0".parse().unwrap())
        );
        assert_eq!(
            parse_addr_knob("HYBRID_ADDR", Some("[::1]:7411"), "127.0.0.1:7411"),
            Ok("[::1]:7411".parse().unwrap())
        );
        // Hostnames, bare ports and garbage are all hard errors.
        for bad in ["localhost:7411", "7411", "127.0.0.1", "127.0.0.1:port"] {
            let err = parse_addr_knob("HYBRID_ADDR", Some(bad), "127.0.0.1:7411")
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("HYBRID_ADDR"), "message names the variable: {err}");
            assert!(err.contains(bad), "message quotes the value: {err}");
            assert!(err.contains("ip:port"), "message says what is legal: {err}");
        }
    }

    #[test]
    fn mixed_argv_lets_the_smallest_scale_win() {
        let tiny = tiny_scale().topology.total_as_count();
        let scale = scale_from_argv(["--scale=100k", "--tiny"]).unwrap();
        assert_eq!(scale.topology.total_as_count(), tiny, "--tiny beats --scale");
        let scale = scale_from_argv(["--small", "--scale", "50k"]).unwrap();
        assert_eq!(scale.topology.total_as_count(), bench_scale().topology.total_as_count());
        let scale = scale_from_argv(["--small", "--tiny"]).unwrap();
        assert_eq!(scale.topology.total_as_count(), tiny, "--tiny beats --small");
    }

    #[test]
    fn impact_measurement_reports_sweep_stats() {
        let scenario = build_scenario(&tiny_scale());
        let report = run_measurement_with_impact(&scenario, 3, Some(64));
        let stats = report.sweep_stats.expect("the harness asks for sweep stats");
        assert!(stats.lookups() > 0);
        assert_eq!(stats.misses, stats.delta_repairs + stats.full_rebuilds);
    }

    #[test]
    fn misinferred_graph_is_annotated() {
        let scenario = build_scenario(&tiny_scale());
        let (graph, _) = sweep_inputs(&scenario);
        let annotated =
            graph.plane_edges(IpVersion::V6).filter(|e| e.rel(IpVersion::V6).is_some()).count();
        assert!(annotated > 0);
    }

    #[test]
    fn sweep_inputs_feed_an_equivalent_parallel_sweep() {
        use hybrid_tor::impact::{correction_sweep, correction_sweep_with, SweepOptions};
        let scenario = build_scenario(&tiny_scale());
        let (misinferred, hybrids) = sweep_inputs(&scenario);
        let options = hybrid_tor::impact::ImpactOptions { top_k: 3, source_cap: Some(32) };
        let sequential = correction_sweep(&misinferred, &hybrids, &options);
        let parallel =
            correction_sweep_with(&misinferred, &hybrids, &options, &SweepOptions::default());
        assert_eq!(parallel.steps, sequential.steps);
    }
}

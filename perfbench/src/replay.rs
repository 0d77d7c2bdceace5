//! The `replay-10k` workload: the `--scale 10k` scenario's BGP4MP update
//! stream (128 windows of 24 events), decoded from bytes and replayed
//! window by window with the delta caches on — the public calls
//! `TemporalSweep::run` makes, one report per window.

use std::time::{Duration, Instant};

use asgraph::RemovalPolicy;
use bgp_types::RibSnapshot;
use bytes::Bytes;
use hybrid_tor::baselines::{gao_inference, BaselineInput};
use hybrid_tor::communities::CommunityInference;
use hybrid_tor::ingest::{ApplyStats, IngestCaches, LiveRib, TemporalSweep, UpdateStream};
use hybrid_tor::locpref::LocPrfRosetta;
use hybrid_tor::pipeline::{Pipeline, PipelineInput};
use irr::CommunityDictionary;
use routesim::{Scenario, UpdateStreamConfig};
use topogen::GroundTruth;

use crate::digest::{self, fnv1a};
use crate::output::Outcome;
use crate::trace::Trace;
use crate::{stats, sys, Args, Corruption, THREADS};

/// Windows in the update stream.
const WINDOWS: usize = 128;

/// Update events per window.
const EVENTS_PER_WINDOW: usize = 24;

/// Everything the timed phase consumes, built during set-up.
struct Inputs {
    base: RibSnapshot,
    dictionary: CommunityDictionary,
    truth: GroundTruth,
    stream: Bytes,
    pipeline: Pipeline,
}

/// Build the scenario and serialise its update stream. The seed drives
/// the stream: the table it flaps is the preset's own, so seeds vary which
/// routes churn, not how large the table is.
fn setup(seed: u64, mut trace: Option<&mut Trace>) -> Inputs {
    let knobs = crate::knobs();
    let mut scale = bench::internet_10k_scale();
    scale.sim = knobs.sim(&scale.sim);
    let scenario = match trace.as_deref_mut() {
        Some(trace) => {
            let truth = trace.span("topogen.generate", |_| topogen::generate(&scale.topology));
            let scenario = crate::batch::trace_build(trace, truth, &scale);
            crate::batch::trace_propagation(trace, &scenario);
            scenario
        }
        None => Scenario::build(&scale.topology, &scale.sim),
    };
    let config =
        UpdateStreamConfig { windows: WINDOWS, events_per_window: EVENTS_PER_WINDOW, seed };
    let stream = UpdateStream::from_windows(scenario.update_stream(&config)).to_bytes();
    let base = match trace {
        Some(trace) => trace.span("core.pool", |_| scenario.pooled_snapshot(THREADS)),
        None => scenario.pooled_snapshot(THREADS),
    };
    Inputs {
        base,
        dictionary: scenario.registry.build_dictionary(),
        truth: scenario.truth.clone(),
        stream,
        pipeline: knobs.pipeline(),
    }
}

/// One replay pass: per-window seconds, per-window report digests, and
/// the pass's wall seconds (decode plus every window).
struct Pass {
    windows_s: Vec<f64>,
    digests: Vec<(u64, u64)>,
    wall_s: f64,
}

/// The removal policy `TemporalSweep::run` picks for these options.
fn removal_policy(pipeline: &Pipeline) -> RemovalPolicy {
    if pipeline.options.sweep.removal_repair {
        RemovalPolicy::Repair
    } else {
        RemovalPolicy::Rebuild
    }
}

/// Decode the stream and replay it; with a trace, one span per call and
/// the apply/repair counters, plus (outside the timed windows) the
/// communities, LocPrf and baseline stages timed alone on each window.
fn replay(inputs: &Inputs, mut trace: Option<&mut Trace>, corrupt: bool) -> Pass {
    let started = Instant::now();
    let mut stream = None;
    spanned(&mut trace, "mrt.decode", || {
        stream = Some(UpdateStream::from_bytes(inputs.stream.clone()).expect("stream decodes"))
    });
    let stream = stream.expect("decoded");
    let mut live = LiveRib::from_snapshot(&inputs.base);
    let mut caches = IngestCaches::from_rib(&live, removal_policy(&inputs.pipeline));
    let mut pass =
        Pass { windows_s: Vec::with_capacity(stream.len()), digests: Vec::new(), wall_s: 0.0 };
    let mut probe_s = 0.0;
    for window in stream.windows() {
        let t0 = Instant::now();
        let mut apply = ApplyStats::default();
        spanned(&mut trace, "ingest.apply", || {
            for record in window {
                for delta in live.apply_record(record, &mut apply) {
                    caches.extract.apply(&delta);
                }
            }
        });
        let mut snapshot = None;
        spanned(&mut trace, "ingest.snapshot", || snapshot = Some(live.snapshot()));
        let input = PipelineInput {
            snapshot: snapshot.expect("snapshot taken"),
            dictionary: inputs.dictionary.clone(),
            truth: Some(inputs.truth.clone()),
        };
        let probe_input = trace.is_some().then(|| input.clone());
        let mut report = None;
        spanned(&mut trace, "ingest.pipeline", || {
            report = Some(inputs.pipeline.run_with_caches(input, &mut caches).0)
        });
        let mut json = Vec::new();
        spanned(&mut trace, "core.report", || {
            json = report.take().expect("ran").to_json().into_bytes()
        });
        pass.windows_s.push(t0.elapsed().as_secs_f64());
        if corrupt && pass.digests.is_empty() {
            digest::corrupt(&mut json);
        }
        pass.digests.push((live.timestamp(), fnv1a(&json)));
        let repair = caches.valley.take_stats();
        if let (Some(t), Some(input)) = (trace.as_deref_mut(), probe_input) {
            t.count("ingest.records", window.len() as f64);
            t.count("ingest.messages", (apply.announcements + apply.withdrawals) as f64);
            t.count("ingest.redundant", apply.redundant as f64);
            t.count("ingest.maps_reused", repair.maps_reused as f64);
            t.count("ingest.maps_computed", repair.maps_computed as f64);
            t.count("ingest.valley_resets", repair.resets as f64);
            let p0 = Instant::now();
            probe_stages(t, &caches, input);
            probe_s += p0.elapsed().as_secs_f64();
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64() - probe_s;
    pass
}

/// Run `f`, under a span named `name` when tracing.
fn spanned(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce()) {
    match trace {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Time the communities, LocPrf and baseline stages alone on one
/// window's input (extraction served from the cache, as in the replay).
fn probe_stages(trace: &mut Trace, caches: &IngestCaches, input: PipelineInput) {
    let data = trace.span("core.extract", |_| caches.extract.materialize());
    let PipelineInput { snapshot, dictionary, .. } = input;
    let mut inference = trace
        .span("core.communities", |_| CommunityInference::from_snapshot(&snapshot, &dictionary));
    trace.span("core.locpref", |_| {
        let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
        rosetta.apply(&snapshot, &dictionary, &mut inference);
    });
    trace.span("core.baseline", |_| gao_inference(&data, BaselineInput::BothPlanes));
}

/// Per-window `(timestamp, report digest)` from `TemporalSweep::run` in
/// full-recompute mode on the same stream: the replay's reference.
fn reference(inputs: &Inputs) -> Vec<(u64, u64)> {
    let stream = UpdateStream::from_bytes(inputs.stream.clone()).expect("stream decodes");
    TemporalSweep::new(inputs.pipeline.clone(), false)
        .run(&inputs.base, &inputs.dictionary, Some(&inputs.truth), &stream)
        .iter()
        .map(|w| (w.timestamp, fnv1a(w.report.to_json().as_bytes())))
        .collect()
}

/// Windows of `pass` whose report differs from `expected` (a missing or
/// extra window counts as differing).
fn differing(pass: &Pass, expected: &[(u64, u64)]) -> u64 {
    let differing = pass.digests.iter().zip(expected).filter(|(got, want)| got != want).count();
    (differing + expected.len().abs_diff(pass.digests.len())) as u64
}

/// The untraced run: set up (the median is `setup_s`), then replay until
/// `seconds` pass.
pub fn run(args: &Args) -> Outcome {
    let (inputs, setup_s) = crate::timed_setup(|| setup(args.seed, None));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || started.elapsed() < budget {
        let corrupt = passes.is_empty() && args.corrupt == Some(Corruption::Window);
        passes.push(replay(&inputs, None, corrupt));
    }
    let expected = reference(&inputs);
    let mut outcome = Outcome::default();
    for pass in &passes {
        outcome.attempted += pass.digests.len() as u64;
        outcome.failed += differing(pass, &expected);
    }
    outcome.correct = outcome.failed == 0;
    let windows_ms: Vec<f64> =
        passes.iter().flat_map(|p| p.windows_s.iter().map(|s| s * 1e3)).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let (tail_ms, pct) = stats::tail(&windows_ms, stats::OP_TAIL_CAP);
    eprintln!(
        "perfbench: replay-10k: {} passes, {} windows, tail p{pct}",
        passes.len(),
        windows_ms.len()
    );
    let run_s = stats::median(&walls);
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("run_s", run_s, "s");
    outcome.metric("peak_rss_mb", sys::peak_rss_mb(None), "MB");
    outcome.metric("op_tail_ms", tail_ms, "ms");
    outcome.metric("ops_per_s", WINDOWS as f64 / run_s, "1/s");
    outcome
}

/// The traced run: set-up under spans, one untraced pass for the wall
/// comparison, then a traced pass.
pub fn run_traced(args: &Args, trace: &mut Trace) -> Outcome {
    let inputs = setup(args.seed, Some(trace));
    let untraced = replay(&inputs, None, false);
    let traced = replay(&inputs, Some(trace), false);
    let mut outcome = Outcome::default();
    for pass in [&untraced, &traced] {
        outcome.attempted += pass.digests.len() as u64;
    }
    let expected = reference(&inputs);
    outcome.failed += differing(&untraced, &expected) + differing(&traced, &expected);
    outcome.correct = outcome.failed == 0;
    crate::layers::report(trace, &mut outcome, traced.wall_s, untraced.wall_s);
    eprintln!("perfbench: replay traced {:.3}s, untraced {:.3}s", traced.wall_s, untraced.wall_s);
    outcome
}

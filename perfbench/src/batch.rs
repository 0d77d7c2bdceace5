//! The batch workloads: `paper-full` (the paper's whole measurement at
//! paper scale, Figure 2 sweep included) and `internet-100k` (the
//! CAIDA-shaped 100k-AS preset), both from ground truth to report bytes.

use std::time::{Duration, Instant};

use bgp_types::IpVersion;
use hybrid_tor::baselines::{gao_inference, BaselineInput, InferenceAccuracy};
use hybrid_tor::communities::{CommunityInference, InferenceSource};
use hybrid_tor::impact::{correction_sweep_in, plane_blind_annotation_with, SweepCache};
use hybrid_tor::locpref::LocPrfRosetta;
use hybrid_tor::pipeline::{Pipeline, PipelineInput, PipelineOptions};
use hybrid_tor::report::{DatasetSummary, Report};
use routesim::{PolicyDeployment, PropagationOptions, Scenario, SimConfig};
use topogen::GroundTruth;

use crate::digest::{self, Verdict};
use crate::output::Outcome;
use crate::trace::Trace;
use crate::{stats, sys, Args, Corruption};

/// One batch workload's inputs.
struct Batch {
    name: &'static str,
    scale: bench::ExperimentScale,
    pipeline: Pipeline,
}

fn batch(name: &'static str, seed: u64) -> Batch {
    let knobs = crate::knobs();
    let (scale, pipeline) = match name {
        // As `exp_f2_customer_tree_sweep` runs it: top 20 hybrids, 400 BFS
        // sources, sweep statistics in the report.
        "paper-full" => (
            bench::paper_scale(),
            Pipeline {
                options: PipelineOptions::from(&knobs).with_sweep(knobs.sweep()),
                emit_sweep_stats: true,
                ..Pipeline::with_impact(20, Some(400))
            },
        ),
        "internet-100k" => (bench::internet_100k_scale(), knobs.pipeline()),
        other => unreachable!("not a batch workload: {other}"),
    };
    let mut scale = crate::seeded(scale, seed);
    scale.sim = knobs.sim(&scale.sim);
    Batch { name, scale, pipeline }
}

/// Ground truth to report bytes, untraced.
fn measure(batch: &Batch, truth: GroundTruth) -> (Vec<u8>, usize) {
    let scenario =
        Scenario::build_from_truth(truth, batch.scale.topology.clone(), &batch.scale.sim);
    let entries = scenario.total_rib_entries();
    let input = PipelineInput::from_scenario_with(&scenario, &batch.pipeline.options);
    drop(scenario);
    (batch.pipeline.run(input).to_json().into_bytes(), entries)
}

/// Check report bytes against the digest recorded for this seed; with
/// no recorded digest, against the first iteration's bytes.
fn check_report(name: &str, seed: u64, bytes: &[u8], first: &mut Option<u64>) -> bool {
    let expected = digest::recorded(name, seed).or(*first);
    let verdict = digest::check(bytes, expected);
    if first.is_none() {
        *first = Some(digest::fnv1a(bytes));
        eprintln!("perfbench: {name} seed {seed} report digest {:016x}", digest::fnv1a(bytes));
        if digest::recorded(name, seed).is_none() {
            eprintln!("perfbench: no digest recorded for seed {seed}; checking iterations agree");
        }
    }
    verdict != Verdict::Mismatch
}

/// The untraced run: repeat ground truth → report until `seconds` pass.
pub fn run(name: &'static str, args: &Args) -> Outcome {
    let batch = batch(name, args.seed);
    let (truth, setup_s) = crate::timed_setup(|| topogen::generate(&batch.scale.topology));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut entries = 0;
    let mut first = None;
    let mut outcome = Outcome::default();
    while runs.is_empty() || started.elapsed() < budget {
        let truth = truth.clone();
        let t0 = Instant::now();
        let (mut bytes, rib_entries) = measure(&batch, truth);
        runs.push(t0.elapsed().as_secs_f64());
        entries = rib_entries;
        if args.corrupt == Some(Corruption::Report) {
            digest::corrupt(&mut bytes);
        }
        outcome.attempted += 1;
        if !check_report(name, args.seed, &bytes, &mut first) {
            outcome.failed += 1;
        }
    }
    let run_s = stats::median(&runs);
    let (tail_s, pct) = stats::tail(&runs, stats::OP_TAIL_CAP);
    eprintln!(
        "perfbench: {name}: {} iterations, {entries} RIB entries, tail = p{pct} of {} samples",
        runs.len(),
        runs.len()
    );
    outcome.correct = outcome.failed == 0;
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("run_s", run_s, "s");
    outcome.metric("peak_rss_mb", sys::peak_rss_mb(None), "MB");
    outcome.metric("op_tail_ms", tail_s * 1e3, "ms");
    outcome.metric("ops_per_s", entries as f64 / run_s, "1/s");
    outcome
}

/// The propagation options `Scenario::build` derives for one plane.
fn propagation_options(sim: &SimConfig, plane: IpVersion) -> PropagationOptions {
    let (_, frontier_concurrency) = sim.propagation_split();
    PropagationOptions {
        reachability_relaxation: plane == IpVersion::V6 && sim.v6_reachability_relaxation,
        leak_probability: sim.leak_probability,
        seed: sim.seed,
        scenario: sim.policy_scenario,
        deployment: PolicyDeployment {
            fraction: sim.policy_deployment,
            seed: sim.seed ^ 0x6465_706c,
        },
        frontier_concurrency,
        scheduling: sim.scheduling,
    }
}

/// Time `propagate_origins` per plane on the scenario's own origins.
pub fn trace_propagation(trace: &mut Trace, scenario: &Scenario) {
    let sim = &scenario.sim_config;
    let graph = &scenario.truth.graph;
    let (origin_workers, _) = sim.propagation_split();
    for plane in IpVersion::BOTH {
        let mut origins: Vec<_> = graph.asns().filter(|a| graph.degree(*a, plane) > 0).collect();
        origins.sort();
        if sim.origin_sample > 1 {
            origins = origins.into_iter().step_by(sim.origin_sample).collect();
        }
        let options = propagation_options(sim, plane);
        trace.count("routesim.origins", origins.len() as f64);
        let outcomes = trace.span("routesim.propagate", |_| {
            routesim::propagate_origins(graph, &origins, plane, &options, origin_workers)
        });
        drop(outcomes);
    }
}

/// Build a scenario under a span, recording RIB entries and RSS growth.
pub fn trace_build(
    trace: &mut Trace,
    truth: GroundTruth,
    scale: &bench::ExperimentScale,
) -> Scenario {
    let before = sys::rss_mb(None);
    let scenario = trace.span("routesim.build", |_| {
        Scenario::build_from_truth(truth, scale.topology.clone(), &scale.sim)
    });
    trace.count("routesim.rss_mb", sys::rss_mb(None) - before);
    trace.count("routesim.rib_entries", scenario.total_rib_entries() as f64);
    scenario
}

/// `Pipeline::run` stage by stage, one span per stage, so each span is
/// that stage's busy time. Renders the same report bytes.
pub fn traced_pipeline(trace: &mut Trace, pipeline: &Pipeline, input: PipelineInput) -> Vec<u8> {
    let PipelineInput { snapshot, dictionary, truth } = input;
    let data = trace.span("core.extract", |_| {
        let mut data = hybrid_tor::extract::extract(&snapshot);
        if pipeline.options.csr {
            data.graph.freeze();
        }
        data
    });
    let mut inference = trace
        .span("core.communities", |_| CommunityInference::from_snapshot(&snapshot, &dictionary));
    if pipeline.use_locpref {
        trace.span("core.locpref", |_| {
            let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
            rosetta.apply(&snapshot, &dictionary, &mut inference);
        });
    }
    let hybrids =
        trace.span("core.hybrid", |_| hybrid_tor::hybrid::detect_hybrids(&data, &inference));
    let valleys = trace.span("core.valley", |_| {
        let mut annotated = data.graph.clone();
        inference.annotate_graph(&mut annotated);
        hybrid_tor::valley::analyze_valleys(&data, &annotated, IpVersion::V6)
    });
    let baseline = trace.span("core.baseline", |_| gao_inference(&data, BaselineInput::BothPlanes));
    let (impact, sweep_stats) = if pipeline.run_impact {
        trace.span("impact.sweep", |t| {
            let misinferred = plane_blind_annotation_with(
                &data.graph,
                &inference,
                &baseline,
                pipeline.options.sweep.concurrency,
            );
            let mut cache = SweepCache::new();
            let curve = correction_sweep_in(
                &misinferred,
                &hybrids.findings,
                &pipeline.impact_options,
                &pipeline.options.sweep,
                &mut cache,
            );
            let stats = cache.stats();
            t.count("impact.memo_hit_frac", stats.hit_rate());
            t.count("impact.delta_frac", stats.delta_rate());
            (Some(curve), pipeline.emit_sweep_stats.then_some(stats))
        })
    } else {
        (None, None)
    };
    trace.span("core.report", |_| {
        let dual_stack_classified_both = data
            .graph
            .dual_stack_edges()
            .filter(|e| {
                inference.relationship(e.a, e.b, IpVersion::V4).is_some()
                    && inference.relationship(e.a, e.b, IpVersion::V6).is_some()
            })
            .count();
        let dataset = DatasetSummary {
            ipv6_paths: data.paths_v6.len(),
            ipv4_paths: data.paths_v4.len(),
            ipv6_entries: data.entries_v6,
            ipv4_entries: data.entries_v4,
            ipv6_links: data.link_count(IpVersion::V6),
            ipv4_links: data.link_count(IpVersion::V4),
            dual_stack_links: data.dual_stack_link_count(),
            ipv6_links_classified: inference.inferred_link_count(IpVersion::V6),
            dual_stack_links_classified: dual_stack_classified_both,
            ipv6_links_from_communities: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::Communities),
            ipv6_links_from_locpref: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::LocalPref),
            conflicted_links: inference.conflicted_links,
            dictionary_size: dictionary.len(),
        };
        let (baseline_accuracy_v4, baseline_accuracy_v6) =
            match (&truth, pipeline.evaluate_baseline) {
                (Some(truth), true) => (
                    Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V4)),
                    Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V6)),
                ),
                _ => (None, None),
            };
        let report = Report {
            dataset,
            hybrids,
            valleys,
            impact,
            sweep_stats,
            baseline_accuracy_v4,
            baseline_accuracy_v6,
            policy_scenario: (pipeline.options.policy_scenario
                != routesim::PolicyScenario::Classic)
                .then_some(pipeline.options.policy_scenario),
        };
        report.to_json().into_bytes()
    })
}

/// The traced run: one untraced ground-truth → report pass for the
/// wall-time comparison, then the same pass with a span per layer call.
/// `paper-full` also traces the service layers over the paper-scale
/// scenario the daemon serves.
pub fn run_traced(name: &'static str, args: &Args, trace: &mut Trace) -> Result<Outcome, String> {
    let batch = batch(name, args.seed);
    let truth = trace.span("topogen.generate", |_| topogen::generate(&batch.scale.topology));
    let mut outcome = Outcome::default();
    let mut first = None;

    let t0 = Instant::now();
    let (untraced, _) = measure(&batch, truth.clone());
    let untraced_wall_s = t0.elapsed().as_secs_f64();
    outcome.attempted += 1;
    if !check_report(name, args.seed, &untraced, &mut first) {
        outcome.failed += 1;
    }

    let t0 = Instant::now();
    let scenario = trace_build(trace, truth, &batch.scale);
    let input = trace.span("core.pool", |_| {
        PipelineInput::from_scenario_with(&scenario, &batch.pipeline.options)
    });
    let traced = traced_pipeline(trace, &batch.pipeline, input.clone());
    let traced_wall_s = t0.elapsed().as_secs_f64();
    outcome.attempted += 1;
    if !check_report(name, args.seed, &traced, &mut first) {
        outcome.failed += 1;
    }

    // `Pipeline::run` as a whole (stages overlapped on the workers), and
    // the propagation share of the build.
    trace.span("core.pipeline", |_| batch.pipeline.run(input));
    trace_propagation(trace, &scenario);
    drop(scenario);
    eprintln!(
        "perfbench: {} traced {traced_wall_s:.3}s, untraced {untraced_wall_s:.3}s",
        batch.name
    );

    if name == "paper-full" {
        crate::service::trace_layers(args, trace, &mut outcome)?;
    }
    outcome.correct = outcome.failed == 0;
    crate::layers::report(trace, &mut outcome, traced_wall_s, untraced_wall_s);
    Ok(outcome)
}

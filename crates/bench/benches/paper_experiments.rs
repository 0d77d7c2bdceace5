//! Criterion benchmarks that regenerate (and time) every experiment of the
//! paper at a reduced scale, one benchmark per table/figure:
//!
//! * `e1_dataset_pipeline`   — Section 3 ¶1: extraction + inference + coverage
//! * `e2_hybrid_detection`   — Section 3 obs. 1: the hybrid census
//! * `e3_hybrid_visibility`  — Section 3 obs. 2: path visibility of hybrids
//! * `e4_valley_classification` — Section 3 obs. 3: valley paths and attribution
//! * `f1_customer_tree_example` — Figure 1: the 5-AS customer-tree example
//! * `f2_customer_tree_sweep`   — Figure 2: the correction sweep
//! * `a1_baseline_gao`      — ablation: the plane-blind Gao baseline
//!
//! The measured quantity is wall-clock time of the analysis itself; the
//! headline *numbers* of each experiment are printed by the corresponding
//! `exp_*` binary (see DESIGN.md §4 and EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use asgraph::AsGraph;
use bgp_types::IpVersion;
use hybrid_tor::baselines::{gao_inference, BaselineInput};
use hybrid_tor::communities::CommunityInference;
use hybrid_tor::extract::{extract, ExtractedData};
use hybrid_tor::hybrid::detect_hybrids;
use hybrid_tor::impact::{correction_sweep, ImpactOptions};
use hybrid_tor::locpref::LocPrfRosetta;
use hybrid_tor::valley::analyze_valleys;
use irr::CommunityDictionary;
use routesim::Scenario;

struct Prepared {
    scenario: Scenario,
    dictionary: CommunityDictionary,
    data: ExtractedData,
    inference: CommunityInference,
    annotated: AsGraph,
}

fn prepare() -> Prepared {
    let scale = bench::bench_scale();
    let scenario = bench::build_scenario(&scale);
    let dictionary = scenario.registry.build_dictionary();
    let snapshot = scenario.pooled_snapshot(scenario.sim_config.concurrency);
    let data = extract(&snapshot);
    let mut inference = CommunityInference::from_snapshot(&snapshot, &dictionary);
    let rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
    rosetta.apply(&snapshot, &dictionary, &mut inference);
    let mut annotated = data.graph.clone();
    inference.annotate_graph(&mut annotated);
    Prepared { scenario, dictionary, data, inference, annotated }
}

fn paper_experiments(c: &mut Criterion) {
    let prepared = prepare();
    let snapshot = prepared.scenario.pooled_snapshot(prepared.scenario.sim_config.concurrency);

    c.bench_function("e1_dataset_pipeline", |b| {
        b.iter(|| {
            let data = extract(black_box(&snapshot));
            let mut inference = CommunityInference::from_snapshot(&snapshot, &prepared.dictionary);
            let rosetta = LocPrfRosetta::learn(&snapshot, &prepared.dictionary, &inference);
            rosetta.apply(&snapshot, &prepared.dictionary, &mut inference);
            black_box((
                data.link_count(IpVersion::V6),
                inference.inferred_link_count(IpVersion::V6),
            ))
        })
    });

    c.bench_function("e2_hybrid_detection", |b| {
        b.iter(|| black_box(detect_hybrids(&prepared.data, &prepared.inference).findings.len()))
    });

    c.bench_function("e3_hybrid_visibility", |b| {
        b.iter(|| {
            let report = detect_hybrids(&prepared.data, &prepared.inference);
            black_box(report.path_visibility_fraction())
        })
    });

    c.bench_function("e4_valley_classification", |b| {
        b.iter(|| {
            black_box(
                analyze_valleys(&prepared.data, &prepared.annotated, IpVersion::V6).valley_paths,
            )
        })
    });

    c.bench_function("f1_customer_tree_example", |b| {
        b.iter(|| black_box(bench::figure1_customer_trees()))
    });

    c.bench_function("f2_customer_tree_sweep", |b| {
        let hybrids = detect_hybrids(&prepared.data, &prepared.inference).findings;
        let baseline = gao_inference(&prepared.data, BaselineInput::BothPlanes);
        let misinferred = hybrid_tor::impact::plane_blind_annotation(
            &prepared.data.graph,
            &prepared.inference,
            &baseline,
        );
        let options = ImpactOptions { top_k: 10, source_cap: Some(100) };
        b.iter(|| black_box(correction_sweep(&misinferred, &hybrids, &options).steps.len()))
    });

    c.bench_function("a1_baseline_gao", |b| {
        b.iter(|| black_box(gao_inference(&prepared.data, BaselineInput::BothPlanes).len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = paper_experiments
}
criterion_main!(benches);

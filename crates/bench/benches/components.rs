//! Component-level performance benchmarks (P1 in DESIGN.md): the MRT
//! codec, the topology generator, the route propagation, and the
//! valley-free graph traversals. These are throughput benchmarks for the
//! substrates rather than reproductions of paper artifacts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use asgraph::customer_tree::tree_union_metrics;
use asgraph::valley::valley_free_distances;
use asgraph::AsGraph;
use bgp_types::{Asn, IpVersion, Relationship, RelationshipPair};
use hybrid_tor::hybrid::HybridFinding;
use hybrid_tor::impact::{
    correction_sweep_in, correction_sweep_with, ImpactOptions, SweepCache, SweepOptions,
};
use hybrid_tor::pipeline::{Pipeline, PipelineInput};
use routesim::propagate::{propagate_origin, propagate_origins, PropagationOptions};
use routesim::{OriginScheduling, Scenario};
use topogen::HybridClass;

use bench::record_gauge;

fn components(c: &mut Criterion) {
    let scale = bench::bench_scale();
    let scenario = bench::build_scenario(&scale);
    let snapshot = scenario.merged_snapshot();

    // MRT encode/decode throughput over the whole collector view.
    let mut encoded = Vec::new();
    mrt::write_snapshot(&mut encoded, &snapshot).unwrap();
    let mut group = c.benchmark_group("mrt_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_snapshot", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            mrt::write_snapshot(&mut out, black_box(&snapshot)).unwrap();
            black_box(out.len())
        })
    });
    group.bench_function("decode_snapshot", |b| {
        b.iter(|| black_box(mrt::read_snapshot(black_box(&encoded[..])).unwrap().len()))
    });
    group.finish();

    // Topology generation.
    c.bench_function("topogen_small", |b| {
        b.iter(|| black_box(topogen::generate(&scale.topology).graph.edge_count()))
    });

    // Route propagation for a single origin.
    let origin = scenario.truth.graph.asns().next().unwrap();
    c.bench_function("propagate_one_origin_v4", |b| {
        b.iter(|| {
            black_box(
                propagate_origin(
                    &scenario.truth.graph,
                    origin,
                    IpVersion::V4,
                    &PropagationOptions::default(),
                )
                .routed_count(),
            )
        })
    });

    // Sharded propagation of every origin at several worker counts —
    // `propagate/threads=1` is the sequential baseline the parallel rows
    // are compared against (the outputs are byte-identical by contract).
    let graph = &scenario.truth.graph;
    let mut origins: Vec<Asn> =
        graph.asns().filter(|a| graph.degree(*a, IpVersion::V4) > 0).collect();
    origins.sort();
    let mut group = c.benchmark_group("propagate");
    group.throughput(Throughput::Elements(origins.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("threads={threads}"), |b| {
            b.iter(|| {
                black_box(
                    propagate_origins(
                        graph,
                        black_box(&origins),
                        IpVersion::V4,
                        &PropagationOptions::default(),
                        threads,
                    )
                    .len(),
                )
            })
        });
    }
    // The origin-to-worker schedule at a fixed worker count: dynamic
    // claims against the static striping baseline. The row ids predate
    // the dynamic schedule (`lpt=degree` now times `Dynamic`) and stay
    // as they are so recorded baselines keep tracking them. Outputs are
    // byte-identical under both schedules — the rows only measure how
    // evenly the per-origin work lands on the workers.
    for (name, scheduling) in
        [("lpt=degree", OriginScheduling::Dynamic), ("lpt=static", OriginScheduling::Static)]
    {
        let options = PropagationOptions::default().with_scheduling(scheduling);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    propagate_origins(graph, black_box(&origins), IpVersion::V4, &options, 4).len(),
                )
            })
        });
    }
    // Internet-scale rows: the frozen CSR backend propagating a sampled
    // origin set over the CAIDA-shaped 10k/50k/100k-AS graphs the
    // `--scale` experiment knob runs at. Origins are strided exactly as
    // `SimConfig::origin_sample` strides them, so the rows time what the
    // experiment bins actually execute; the 10k/50k worker budget is the
    // whole host (0 = all cores), while 100k runs at one and at two
    // workers, the pair whose ratio says whether a second core pays off
    // at internet scale. The `memory/graph_bytes/*` gauges next to
    // them pin the frozen graph's heap footprint at each scale.
    for (name, scale, worker_rows) in [
        ("scale=10k", bench::internet_10k_scale(), &[None][..]),
        ("scale=50k", bench::internet_50k_scale(), &[None][..]),
        ("scale=100k", bench::internet_100k_scale(), &[Some(1), Some(2)][..]),
    ] {
        let mut scale_graph = topogen::generate(&scale.topology).graph;
        scale_graph.freeze();
        let breakdown = scale_graph.memory_breakdown();
        let bytes = scale_graph.memory_footprint();
        println!(
            "memory/graph_bytes/{name}: {bytes} bytes frozen ({} nodes, {} edges; map {} + csr {})",
            scale_graph.node_count(),
            scale_graph.edge_count(),
            breakdown.map_bytes,
            breakdown.csr_bytes,
        );
        record_gauge(&format!("memory/graph_bytes/{name}"), bytes as u128);
        record_gauge(&format!("memory/graph_map_bytes/{name}"), breakdown.map_bytes as u128);
        record_gauge(&format!("memory/graph_csr_bytes/{name}"), breakdown.csr_bytes as u128);
        let mut scale_origins: Vec<Asn> =
            scale_graph.asns().filter(|a| scale_graph.degree(*a, IpVersion::V4) > 0).collect();
        scale_origins.sort();
        let scale_origins: Vec<Asn> =
            scale_origins.into_iter().step_by(scale.sim.origin_sample.max(1)).collect();
        group.throughput(Throughput::Elements(scale_origins.len() as u64));
        for &workers in worker_rows {
            let id = match workers {
                Some(workers) => format!("{name}/threads={workers}"),
                None => name.to_string(),
            };
            group.bench_function(&id, |b| {
                b.iter(|| {
                    black_box(
                        propagate_origins(
                            &scale_graph,
                            black_box(&scale_origins),
                            IpVersion::V4,
                            &PropagationOptions::default(),
                            workers.unwrap_or(0),
                        )
                        .len(),
                    )
                })
            });
        }
    }
    group.finish();

    // The full measurement pipeline (input pooling + all stages) at the
    // same worker counts.
    let mut group = c.benchmark_group("pipeline");
    for threads in [1usize, 2, 4] {
        let pipeline = Pipeline::with_concurrency(threads);
        group.bench_function(&format!("threads={threads}"), |b| {
            b.iter(|| {
                let input = PipelineInput::from_scenario_with(&scenario, &pipeline.options);
                black_box(pipeline.run(input).dataset.ipv6_links)
            })
        });
    }
    group.finish();

    // The Figure 2 correction sweep (memo + delta engine) at several
    // worker counts — the curve is byte-identical at every row; the rows
    // only measure the execution layer.
    let (misinferred, hybrid_findings) = bench::sweep_inputs(&scenario);
    let impact_options = ImpactOptions { top_k: 10, source_cap: Some(100) };
    let mut group = c.benchmark_group("sweep");
    for threads in [1usize, 2, 4] {
        let sweep = SweepOptions::with_concurrency(threads);
        group.bench_function(&format!("threads={threads}"), |b| {
            b.iter(|| {
                black_box(
                    correction_sweep_with(
                        black_box(&misinferred),
                        &hybrid_findings,
                        &impact_options,
                        &sweep,
                    )
                    .steps
                    .len(),
                )
            })
        });
    }
    // Removal-heavy fixture: independent "detour" gadgets (4 reachable at
    // distance 2 below 2 and at 3 behind the 3 → 5 detour) whose
    // corrections each strip a load-bearing transition, forcing the
    // default policy into per-source full rebuilds. `removal-repair`
    // absorbs those in place; `removal-rebuild` is the fallback baseline.
    let mut removal_graph = AsGraph::new();
    let mut removal_findings = Vec::new();
    for k in 0..16u32 {
        let base = 10 * k;
        for (p, c) in [(1, 2), (2, 4), (1, 3), (3, 5), (5, 4)] {
            removal_graph.annotate_both(
                Asn(base + p),
                Asn(base + c),
                Relationship::ProviderToCustomer,
            );
        }
        removal_findings.push(HybridFinding {
            a: Asn(base + 2),
            b: Asn(base + 4),
            relationships: RelationshipPair::new(
                Relationship::ProviderToCustomer,
                Relationship::CustomerToProvider,
            ),
            class: HybridClass::TransitV4PeeringV6,
            v6_path_visibility: 3,
        });
    }
    let removal_options = ImpactOptions { top_k: removal_findings.len(), source_cap: None };
    // Outside the timed region: prove the repair tier actually absorbs
    // rebuild fallbacks on this fixture and leaves the curve untouched.
    let mut fallback_cache = SweepCache::new();
    let fallback_curve = correction_sweep_in(
        &removal_graph,
        &removal_findings,
        &removal_options,
        &SweepOptions::with_concurrency(1),
        &mut fallback_cache,
    );
    let mut repair_cache = SweepCache::new();
    let repair_curve = correction_sweep_in(
        &removal_graph,
        &removal_findings,
        &removal_options,
        &SweepOptions::with_concurrency(1).with_removal_repair(true),
        &mut repair_cache,
    );
    let (repair_rebuilds, fallback_rebuilds) =
        (repair_cache.stats().full_rebuilds, fallback_cache.stats().full_rebuilds);
    assert!(
        repair_rebuilds < fallback_rebuilds,
        "removal repair must reduce full rebuilds ({repair_rebuilds} vs {fallback_rebuilds})",
    );
    assert_eq!(repair_curve.steps, fallback_curve.steps, "removal repair moved the curve");
    for (name, removal_repair) in [("removal-repair", true), ("removal-rebuild", false)] {
        let sweep = SweepOptions::with_concurrency(1).with_removal_repair(removal_repair);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    correction_sweep_with(
                        black_box(&removal_graph),
                        &removal_findings,
                        &removal_options,
                        &sweep,
                    )
                    .steps
                    .len(),
                )
            })
        });
    }
    // The sweep at internet scale: the same correction sweep over the
    // misinferred graph of a 10k-AS `--scale 10k` scenario (origin
    // sampling and the frozen CSR backend exactly as the experiment
    // bins run it), whole-host worker budget.
    let scale10k = bench::internet_10k_scale();
    let scenario10k = bench::build_scenario(&scale10k);
    let (misinferred10k, hybrids10k) = bench::sweep_inputs(&scenario10k);
    group.bench_function("scale=10k", |b| {
        b.iter(|| {
            black_box(
                correction_sweep_with(
                    black_box(&misinferred10k),
                    &hybrids10k,
                    &impact_options,
                    &SweepOptions::with_concurrency(0),
                )
                .steps
                .len(),
            )
        })
    });
    group.finish();

    // Sweep-point scenario construction: every point of the paper-scale
    // sweeps is a full from-config build with one knob patched.
    let mut group = c.benchmark_group("scenario");
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            let mut sim = scale.sim.clone();
            sim.documentation_probability = 0.5;
            black_box(Scenario::build(&scale.topology, &sim).total_rib_entries())
        })
    });
    group.finish();

    // Valley-free single-source traversal and the tree-union metric.
    c.bench_function("valley_free_distances", |b| {
        b.iter(|| {
            black_box(valley_free_distances(&scenario.truth.graph, origin, IpVersion::V4).len())
        })
    });
    c.bench_function("tree_union_metrics_capped", |b| {
        b.iter(|| {
            black_box(tree_union_metrics(&scenario.truth.graph, IpVersion::V6, Some(50)).diameter)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = components
}
criterion_main!(benches);

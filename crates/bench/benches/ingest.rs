//! Streaming-ingest benchmarks: replay the same deterministic update
//! stream with delta-repaired caches (`ingest/replay_delta`) and with a
//! full per-window recompute (`ingest/replay_full`).
//!
//! Both rows produce byte-identical per-window reports (the determinism
//! suite and exp_g2 pin that), so the pair is a pure execution-cost
//! comparison: the delta row folds each route change into the extraction
//! counters, Gao's votes, the community tallies and the LocPrf table, and
//! repairs the cached valley distance maps in place, where the full row
//! rescans the resident table in every stage and re-runs every BFS each
//! window.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hybrid_tor::ingest::{TemporalSweep, UpdateStream};
use routesim::UpdateStreamConfig;

fn ingest(c: &mut Criterion) {
    let scale = bench::bench_scale();
    let scenario = bench::build_scenario(&scale);
    let pipeline = bench::ExecKnobs::from_env().pipeline();
    let base = scenario.pooled_snapshot(pipeline.options.workers());
    let dictionary = scenario.registry.build_dictionary();
    let stream = UpdateStream::from_windows(scenario.update_stream(&UpdateStreamConfig::default()));
    println!(
        "ingest: {} windows, {} records over a {}-route base table",
        stream.len(),
        stream.record_count(),
        base.len(),
    );

    let mut group = c.benchmark_group("ingest");
    group.bench_function("replay_delta", |b| {
        let sweep = TemporalSweep::new(pipeline.clone(), true);
        b.iter(|| black_box(sweep.run(&base, &dictionary, Some(&scenario.truth), &stream)))
    });
    group.bench_function("replay_full", |b| {
        let sweep = TemporalSweep::new(pipeline.clone(), false);
        b.iter(|| black_box(sweep.run(&base, &dictionary, Some(&scenario.truth), &stream)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ingest
}
criterion_main!(benches);

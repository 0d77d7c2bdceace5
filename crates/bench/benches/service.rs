//! Resident-service benchmarks: in-process query latency against one
//! [`ResidentState`] snapshot, plus a TCP end-to-end loadgen run whose
//! throughput and p50/p99 land in the BENCH snapshot as gauges.
//!
//! The in-process rows time `hybridd::answer` — exactly the function the
//! daemon fans batches over — so they isolate query cost from transport
//! cost; the gauge rows measure the whole loop (framing, batching,
//! loopback TCP) the way a client experiences it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use bench::record_gauge;
use hybrid_tor::service::ResidentState;
use hybridd::{answer, loadgen, LoadgenConfig, Request, Server};

fn service(c: &mut Criterion) {
    let scale = bench::bench_scale();
    let scenario = bench::build_scenario(&scale);
    let state = ResidentState::build(&scenario, &bench::ExecKnobs::from_env().pipeline());

    // Per-component snapshot footprint (both graph copies).
    let memory = state.memory();
    println!(
        "memory/service: graph map {} + graph csr {} bytes",
        memory.graph_map_bytes, memory.graph_csr_bytes,
    );

    // Deterministic request batches drawn from the snapshot itself.
    let mix = hybridd::query_mix(state.universe(), state.hybrid_pairs(), 42, 512);
    let relationships: Vec<Request> =
        mix.iter().copied().filter(|r| matches!(r, Request::Relationship { .. })).collect();
    let trees: Vec<Request> =
        mix.iter().copied().filter(|r| matches!(r, Request::CustomerTree { .. })).collect();
    let what_ifs: Vec<Request> =
        mix.iter().copied().filter(|r| matches!(r, Request::WhatIf { .. })).collect();

    let mut group = c.benchmark_group("service");
    group.throughput(Throughput::Elements(relationships.len() as u64));
    group.bench_function("relationship_batch", |b| {
        b.iter(|| {
            for request in &relationships {
                black_box(answer(&state, black_box(request)));
            }
        })
    });
    group.throughput(Throughput::Elements(trees.len() as u64));
    group.bench_function("customer_tree", |b| {
        b.iter(|| {
            for request in &trees {
                black_box(answer(&state, black_box(request)));
            }
        })
    });
    if !what_ifs.is_empty() {
        group.throughput(Throughput::Elements(what_ifs.len() as u64));
        group.bench_function("what_if", |b| {
            b.iter(|| {
                for request in &what_ifs {
                    black_box(answer(&state, black_box(request)));
                }
            })
        });
    } else {
        println!("service/what_if: skipped (no hybrid pairs at bench scale)");
    }
    group.finish();

    // End-to-end over loopback TCP: a real daemon, real framing, real
    // batching, measured by the loadgen the CI smoke test also runs.
    let knobs = bench::ExecKnobs::from_env();
    let rebuild: hybridd::Rebuild =
        Arc::new(move || ResidentState::build(&scenario, &bench::ExecKnobs::from_env().pipeline()));
    let server = Server::bind("127.0.0.1:0", state, rebuild, knobs.threads())
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr().expect("ephemeral port resolved");
    std::thread::spawn(move || server.run());
    let report = loadgen::run(
        &LoadgenConfig {
            addr: addr.to_string(),
            requests: 2000,
            clients: 4,
            seed: 42,
            wait: Duration::from_secs(10),
        },
        None,
    )
    .expect("loadgen run against the in-process daemon");
    println!(
        "service/loadgen: {} requests, {:.0} qps, p50 {} ns, p99 {} ns",
        report.requests, report.throughput_qps, report.p50_ns, report.p99_ns,
    );
    record_gauge("service/throughput_qps", report.throughput_qps as u128);
    record_gauge("service/latency_p50_ns", u128::from(report.p50_ns));
    record_gauge("service/latency_p99_ns", u128::from(report.p99_ns));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = service
}
criterion_main!(benches);

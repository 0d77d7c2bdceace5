//! Deterministic-seed regression tests: the synthetic scenario and the
//! whole measurement pipeline must be pure functions of their
//! configuration seeds — byte-identical report serializations are the
//! contract. Since the sharded execution layer landed, the contract is
//! two-dimensional: the same seeds must produce the same bytes across
//! runs AND across worker counts (`concurrency` ∈ {1, 2, 8}), and the
//! committed golden snapshot pins the fixture report so output drift is
//! visible at review time.

use hybrid_as_rel::prelude::*;
use hybrid_as_rel::topology::fixtures::two_plane_fixture;
use hybrid_as_rel::tor::impact::{ImpactOptions, SweepOptions};

/// Render the report for `(topology, sim)` with both the simulator and
/// the pipeline pinned to `concurrency` worker threads.
fn report_json(topology: &TopologyConfig, sim: &SimConfig, concurrency: usize) -> String {
    let sim = sim.clone().with_concurrency(concurrency);
    let scenario = Scenario::build(topology, &sim);
    let pipeline = Pipeline::with_concurrency(concurrency);
    let report = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
    serde_json::to_string_pretty(&report).expect("report serializes")
}

#[test]
fn same_seed_produces_byte_identical_reports() {
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let first = report_json(&topology, &sim, 0);
    let second = report_json(&topology, &sim, 0);
    assert!(first == second, "two runs with the same seeds diverged");
}

#[test]
fn concurrency_matrix_produces_byte_identical_reports() {
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let sequential = report_json(&topology, &sim, 1);
    for concurrency in [2usize, 8] {
        let parallel = report_json(&topology, &sim, concurrency);
        assert!(
            parallel == sequential,
            "concurrency={concurrency} diverged from the sequential report"
        );
    }
}

#[test]
fn scheduling_matrix_produces_byte_identical_reports() {
    use hybrid_as_rel::sim::OriginScheduling;
    // The origin-to-worker schedule is the second dimension of the
    // execution stack (after origin workers): dynamic
    // claims and static striping must both reproduce the bytes of
    // the fully sequential run at every worker count.
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let sequential = report_json(&topology, &sim, 1);
    for scheduling in [OriginScheduling::Static, OriginScheduling::Dynamic] {
        for concurrency in [1usize, 2, 8] {
            let pinned = sim.clone().with_scheduling(scheduling);
            let report = report_json(&topology, &pinned, concurrency);
            assert!(
                report == sequential,
                "scheduling={scheduling:?} concurrency={concurrency} diverged from the \
                 sequential report"
            );
        }
    }
}

#[test]
fn scenario_matrix_produces_byte_identical_reports() {
    use hybrid_as_rel::sim::PolicyScenario;
    // Adversarial scenarios are *output* knobs — a route leak or hijack
    // changes the report — but within a (scenario, deployment) point the
    // execution stack must stay invisible: every worker count reproduces
    // the sequential bytes, because the attacker/leaker picks are
    // structural and deployment is sampled per AS from a dedicated seed.
    let topology = TopologyConfig::tiny();
    let base = SimConfig::small();
    let mut per_point = Vec::new();
    for scenario in
        [PolicyScenario::RouteLeak, PolicyScenario::PrefixHijack, PolicyScenario::SubprefixHijack]
    {
        for deployment in [0.0, 0.5, 1.0] {
            let sim = base.clone().with_scenario(scenario).with_deployment(deployment);
            let sequential = report_json(&topology, &sim, 1);
            for concurrency in [2usize, 8] {
                let parallel = report_json(&topology, &sim, concurrency);
                assert!(
                    parallel == sequential,
                    "scenario={scenario:?} deployment={deployment} concurrency={concurrency} \
                     diverged from the sequential report"
                );
            }
            per_point.push((scenario, deployment, sequential));
        }
    }
    // And the scenarios genuinely are output knobs: at deployment 0 each
    // attack produces a report distinct from the classic run's.
    let classic = report_json(&topology, &base, 1);
    for (scenario, deployment, report) in &per_point {
        if *deployment == 0.0 {
            assert!(
                *report != classic,
                "undefended scenario={scenario:?} produced the classic report — the attack \
                 did not distort the measurement"
            );
        }
    }
}

#[test]
fn backend_matrix_produces_byte_identical_reports() {
    // The graph backend is the fourth dimension of the execution stack:
    // the pipeline's walks over the frozen flat CSR arrays and over the
    // mutable adjacency maps must see identical neighbor orders, so every
    // (`PipelineOptions::csr` × worker count) combination reproduces the
    // bytes of the sequential map-backend run. (Scenario propagation
    // always runs on the CSR; tests/properties.rs checks it against the
    // map backend on random graphs.)
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let render = |csr: bool, concurrency: usize| {
        let scenario = Scenario::build(&topology, &sim.clone().with_concurrency(concurrency));
        let mut pipeline = Pipeline::with_concurrency(concurrency);
        pipeline.options = pipeline.options.with_csr(csr);
        let report = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
        serde_json::to_string_pretty(&report).expect("report serializes")
    };
    let sequential_map = render(false, 1);
    for csr in [false, true] {
        for concurrency in [1usize, 2, 8] {
            if (csr, concurrency) == (false, 1) {
                continue;
            }
            let report = render(csr, concurrency);
            assert!(
                report == sequential_map,
                "csr={csr} concurrency={concurrency} diverged from the sequential map-backend \
                 report"
            );
        }
    }
}

/// Render the report with the Figure 2 impact sweep enabled, pinning the
/// whole stack (simulator, pipeline stages, sweep) to `concurrency`
/// workers and the sweep's delta tier to the given removal policy.
fn impact_report_json(
    topology: &TopologyConfig,
    sim: &SimConfig,
    concurrency: usize,
    removal_repair: bool,
) -> String {
    let sim = sim.clone().with_concurrency(concurrency);
    let scenario = Scenario::build(topology, &sim);
    let options = PipelineOptions::with_concurrency(concurrency)
        .with_sweep(SweepOptions { concurrency, removal_repair });
    let pipeline = Pipeline {
        run_impact: true,
        impact_options: ImpactOptions { top_k: 5, source_cap: Some(64) },
        options,
        ..Default::default()
    };
    let report = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
    serde_json::to_string_pretty(&report).expect("report serializes")
}

#[test]
fn impact_sweep_matrix_produces_byte_identical_reports() {
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    // The reference: the sequential sweep under the default removal
    // policy. The engine itself is checked against a memo-free oracle in
    // tests/properties.rs; this matrix pins the whole report.
    let sequential = impact_report_json(&topology, &sim, 1, false);
    for concurrency in [1usize, 2, 8] {
        for removal_repair in [false, true] {
            if (concurrency, removal_repair) == (1, false) {
                continue;
            }
            let report = impact_report_json(&topology, &sim, concurrency, removal_repair);
            assert!(
                report == sequential,
                "impact sweep diverged at concurrency={concurrency} \
                 removal_repair={removal_repair}"
            );
        }
    }
}

#[test]
fn ingest_replay_matrix_produces_byte_identical_reports() {
    use hybrid_as_rel::sim::UpdateStreamConfig;
    use hybrid_as_rel::tor::ingest::{ApplyStats, LiveRib, TemporalSweep, UpdateStream};
    // The streaming ingest path adds an execution dimension on top of
    // the worker count: delta-repaired replay vs full per-window
    // recompute (`TemporalSweep::new`'s flag). Per window, every
    // (concurrency × mode) combination must render the bytes of the
    // sequential full-recompute run — the caches are exact, never an
    // output knob.
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let scenario = Scenario::build(&topology, &sim);
    let stream = UpdateStream::from_windows(scenario.update_stream(&UpdateStreamConfig {
        windows: 3,
        events_per_window: 24,
        seed: 17,
    }));
    let base = scenario.pooled_snapshot(1);
    let dictionary = scenario.registry.build_dictionary();
    let render = |concurrency: usize, incremental: bool| -> Vec<String> {
        TemporalSweep::new(Pipeline::with_concurrency(concurrency), incremental)
            .run(&base, &dictionary, Some(&scenario.truth), &stream)
            .into_iter()
            .map(|o| serde_json::to_string_pretty(&o.report).expect("report serializes"))
            .collect()
    };
    let reference = render(1, false);
    assert_eq!(reference.len(), 3);
    for concurrency in [1usize, 2, 8] {
        for incremental in [false, true] {
            if (concurrency, incremental) == (1, false) {
                continue;
            }
            let rendered = render(concurrency, incremental);
            assert!(
                rendered == reference,
                "ingest replay diverged at concurrency={concurrency} incremental={incremental}"
            );
        }
    }
    // And replaying the stream to its end is byte-identical to a one-shot
    // pipeline run over the final table state.
    let mut live = LiveRib::from_snapshot(&base);
    let mut stats = ApplyStats::default();
    for record in stream.windows().iter().flatten() {
        live.apply_record(record, &mut stats);
    }
    let input = PipelineInput {
        snapshot: live.snapshot(),
        dictionary,
        truth: Some(scenario.truth.clone()),
    };
    let oneshot = Pipeline::with_concurrency(1).run(input);
    assert!(
        serde_json::to_string_pretty(&oneshot).expect("report serializes")
            == *reference.last().expect("three windows"),
        "one-shot recompute at the stream's end diverged from the replayed final window"
    );
}

#[test]
fn fixture_report_matches_the_committed_golden_snapshot() {
    let scenario = Scenario::build_from_truth(
        two_plane_fixture(),
        TopologyConfig::tiny(),
        &SimConfig::small().with_concurrency(1),
    );
    let report = Pipeline::with_concurrency(1)
        .run(PipelineInput::from_scenario_with(&scenario, &PipelineOptions::sequential()));
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");

    let golden_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/two_plane_fixture_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, format!("{rendered}\n")).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden snapshot is committed");
    assert!(
        rendered.trim_end() == golden.trim_end(),
        "fixture report drifted from tests/golden/two_plane_fixture_report.json; if the change \
         is intended, regenerate with: UPDATE_GOLDEN=1 cargo test --test determinism"
    );
}

#[test]
fn same_seed_produces_identical_scenarios() {
    let topology = TopologyConfig::tiny();
    let sim = SimConfig::small();
    let a = Scenario::build(&topology, &sim);
    let b = Scenario::build(&topology, &sim);
    assert_eq!(a.merged_snapshot(), b.merged_snapshot(), "RIB snapshots diverged");
    assert_eq!(graph_edges(&a.truth.graph), graph_edges(&b.truth.graph), "ground truth diverged");
}

/// Canonical, order-independent rendering of an annotated graph.
fn graph_edges(graph: &hybrid_as_rel::graph::AsGraph) -> Vec<String> {
    let mut edges: Vec<String> = graph
        .edges()
        .map(|e| {
            format!("{}-{} v4:{:?} v6:{:?}", e.a, e.b, e.rel(IpVersion::V4), e.rel(IpVersion::V6))
        })
        .collect();
    edges.sort();
    edges
}

#[test]
fn different_topology_seeds_produce_different_internets() {
    let base = TopologyConfig::tiny();
    let reseeded = TopologyConfig { seed: base.seed ^ 0x5eed, ..base.clone() };
    let sim = SimConfig::small();
    let a = report_json(&base, &sim, 0);
    let b = report_json(&reseeded, &sim, 0);
    assert!(a != b, "changing the topology seed should change the measured internet");
}

//! Cross-crate integration tests: the full chain topology → propagation →
//! collectors → MRT files → extraction → inference → hybrid/valley/impact
//! analysis, validated against the simulator's ground truth.

use hybrid_as_rel::prelude::*;
use hybrid_as_rel::topology::HybridClass;
use hybrid_as_rel::tor::communities::InferenceSource;
use hybrid_as_rel::tor::extract::extract;

/// The pipeline input for a simulated scenario.
fn input(scenario: &Scenario) -> PipelineInput {
    PipelineInput::from_scenario_with(scenario, &PipelineOptions::default())
}

fn scenario(seed: u64) -> Scenario {
    let mut topology = TopologyConfig::small();
    topology.seed = seed;
    Scenario::build(&topology, &SimConfig::default())
}

#[test]
fn inferred_relationships_always_agree_with_ground_truth() {
    // Communities in the simulator are applied according to the true
    // per-plane relationships, so whatever the inference classifies must
    // be correct — coverage is partial, correctness must be total.
    let scenario = scenario(1);
    let snapshot = scenario.merged_snapshot();
    let dictionary = scenario.registry.build_dictionary();
    let inference =
        hybrid_as_rel::tor::communities::CommunityInference::from_snapshot(&snapshot, &dictionary);
    let mut checked = 0;
    for (a, b, plane, inferred) in inference.iter() {
        if inferred.source != InferenceSource::Communities {
            continue;
        }
        let truth = scenario
            .truth
            .graph
            .relationship(a, b, plane)
            .expect("inferred link must exist in ground truth");
        assert_eq!(inferred.relationship, truth, "link {a}-{b} on {plane}");
        checked += 1;
    }
    assert!(checked > 200, "expected substantial coverage, checked only {checked}");
}

#[test]
fn full_pipeline_reproduces_the_paper_shape() {
    let scenario = scenario(2);
    let report = Pipeline::default().run(input(&scenario));

    // E1 shape: substantial but partial coverage on IPv6, higher coverage
    // on the dual-stack subset of links that big (tagging) ASes dominate.
    assert!(report.dataset.ipv6_paths > 1_000);
    assert!(report.dataset.ipv6_links > 200);
    assert!(report.dataset.dual_stack_links > 100);
    let coverage = report.dataset.ipv6_coverage();
    assert!(coverage > 0.4 && coverage < 1.0, "IPv6 coverage {coverage}");

    // E2 shape: a noticeable minority of classified dual-stack links is
    // hybrid, and the dominant class is p2p(v4)/transit(v6).
    let h = &report.hybrids;
    assert!(!h.findings.is_empty());
    assert!(h.hybrid_fraction() > 0.02 && h.hybrid_fraction() < 0.4, "{}", h.hybrid_fraction());
    assert!(
        h.peering_v4_transit_v6 >= h.transit_v4_peering_v6,
        "p2p(v4)/transit(v6) should dominate: {} vs {}",
        h.peering_v4_transit_v6,
        h.transit_v4_peering_v6
    );

    // E3 shape: hybrids are far more visible in paths than their share of
    // links, because they sit between well-connected ASes.
    assert!(h.path_visibility_fraction() > h.hybrid_fraction());

    // E4 shape: some valley paths exist (leaks and v6 relaxation are on),
    // and they are a minority of classifiable paths.
    let v = &report.valleys;
    assert!(v.classifiable_paths > 0);
    assert!(v.valley_fraction() < 0.5);

    // A1: the plane-blind baseline is worse on IPv6 than on IPv4.
    let v4 = report.baseline_accuracy_v4.unwrap();
    let v6 = report.baseline_accuracy_v6.unwrap();
    assert!(v4.comparable > 100 && v6.comparable > 100);
    assert!(
        v6.accuracy() <= v4.accuracy() + 0.02,
        "IPv6 accuracy {} should not beat IPv4 accuracy {}",
        v6.accuracy(),
        v4.accuracy()
    );
}

#[test]
fn every_detected_hybrid_is_a_real_hybrid() {
    let scenario = scenario(3);
    let report = Pipeline::default().run(input(&scenario));
    assert!(!report.hybrids.findings.is_empty());
    for finding in &report.hybrids.findings {
        let pair = scenario
            .truth
            .relationship_pair(finding.a, finding.b)
            .expect("detected link exists in truth");
        assert!(pair.is_hybrid(), "false positive on {}-{}", finding.a, finding.b);
        assert_eq!(pair, finding.relationships);
        assert_eq!(HybridClass::classify(pair), Some(finding.class));
    }
}

#[test]
fn hybrid_recall_improves_with_documentation() {
    let truth = hybrid_as_rel::topology::generate(&TopologyConfig::small());
    let recall_at = |documentation: f64| {
        let sim = SimConfig { documentation_probability: documentation, ..SimConfig::default() };
        let scenario = Scenario::build_from_truth(truth.clone(), TopologyConfig::small(), &sim);
        let report = Pipeline::default().run(input(&scenario));
        report.hybrids.findings.len() as f64 / truth.hybrid_links.len().max(1) as f64
    };
    let low = recall_at(0.2);
    let high = recall_at(1.0);
    assert!(high >= low, "recall should not drop with more documentation: {low} vs {high}");
    assert!(high > 0.3, "full documentation should find a good share of hybrids, got {high}");
}

#[test]
fn mrt_files_and_registry_reproduce_the_in_memory_measurement() {
    let scenario = scenario(4);
    let dir = std::env::temp_dir().join(format!("hybrid-as-rel-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mrt_paths = scenario.write_mrt_files(&dir).unwrap();
    let registry_path = dir.join("registry.txt");
    scenario.registry.save(&registry_path).unwrap();

    let from_disk = Pipeline::default().run(
        PipelineInput::from_files(&mrt_paths, &registry_path, &PipelineOptions::default()).unwrap(),
    );
    let in_memory = Pipeline::default().run(input(&scenario));

    assert_eq!(from_disk.dataset.ipv6_paths, in_memory.dataset.ipv6_paths);
    assert_eq!(from_disk.dataset.ipv6_links, in_memory.dataset.ipv6_links);
    assert_eq!(from_disk.dataset.ipv6_links_classified, in_memory.dataset.ipv6_links_classified);
    assert_eq!(from_disk.hybrids.findings.len(), in_memory.hybrids.findings.len());
    assert_eq!(from_disk.valleys.valley_paths, in_memory.valleys.valley_paths);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figure2_correction_sweep_moves_toward_the_truth_metrics() {
    // On a fixture where the misinference is known exactly, correcting the
    // hybrid link must change the tree metrics in the direction the paper
    // reports (better valley-free connectivity of the customer-tree union).
    let scenario = scenario(5);
    let report = Pipeline::with_impact(20, Some(150)).run(input(&scenario));
    let curve = report.impact.unwrap();
    assert!(curve.steps.len() >= 2, "needs at least one correction");
    // Every step carries sane metrics over a non-trivial tree union.
    for step in &curve.steps {
        assert!(step.avg_path_length > 0.0);
        assert!(step.diameter >= 1);
        assert!((0.0..=1.0).contains(&step.reachability));
    }
    // The curve is monotone in the number of corrections applied, and each
    // step names the link it corrected.
    for pair in curve.steps.windows(2) {
        assert_eq!(pair[1].corrected, pair[0].corrected + 1);
        assert!(pair[1].link.is_some());
    }
    // Correcting the most-visible hybrid links must actually move the
    // customer-tree metrics: the sweep is not a flat line.
    let baseline = curve.baseline().unwrap();
    let moved = curve.steps.iter().any(|s| {
        (s.avg_path_length - baseline.avg_path_length).abs() > 1e-9
            || s.diameter != baseline.diameter
            || (s.reachability - baseline.reachability).abs() > 1e-9
    });
    assert!(moved, "correcting hybrid links should change the tree metrics");
}

#[test]
fn observed_topology_is_a_subgraph_of_the_ground_truth() {
    let scenario = scenario(6);
    let data = extract(&scenario.merged_snapshot());
    for plane in IpVersion::BOTH {
        for edge in data.graph.plane_edges(plane) {
            assert!(scenario.truth.graph.has_link(edge.a, edge.b, plane));
        }
        assert!(data.graph.plane_edge_count(plane) <= scenario.truth.graph.plane_edge_count(plane));
    }
    // Collectors with more feeders see more of the truth, but never all of
    // the stub-stub periphery.
    assert!(data.graph.plane_edge_count(IpVersion::V4) > 500);
}

#[test]
fn reports_serialize_to_json_and_back() {
    let scenario = scenario(7);
    let report = Pipeline::default().run(input(&scenario));
    let json = report.to_json();
    let back: Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back.dataset.ipv6_links, report.dataset.ipv6_links);
    assert_eq!(back.hybrids.findings.len(), report.hybrids.findings.len());
}

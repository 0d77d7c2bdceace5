//! Property-based tests (proptest) on the core data structures and
//! invariants: text and wire round trips, orientation consistency of the
//! annotated graph, the valley-free rule, the parallel-equals-sequential
//! contract of the sharded execution layer, the Figure 2 sweep engine
//! against a memo-free oracle, the MRT decoders and pipeline under
//! hostile input, and the allocation-free AS path walk, vote tally and
//! baseline kernels against their allocating hash-map forms.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use proptest::prelude::*;

use hybrid_as_rel::graph::customer_tree::{customer_tree_union, tree_union_metrics};
use hybrid_as_rel::graph::valley::{first_violation, is_valley_free, valley_free_distances};
use hybrid_as_rel::graph::AsGraph;
use hybrid_as_rel::mrt::bgp::{decode_attributes, encode_attributes, AttrContext};
use hybrid_as_rel::mrt::{read_snapshot_bytes, write_snapshot};
use hybrid_as_rel::prelude::{Pipeline, PipelineInput, RibSnapshot};
use hybrid_as_rel::prelude::{Scenario, SimConfig, TopologyConfig};
use hybrid_as_rel::sim::propagate::{propagate_origins, PropagationOptions};
use hybrid_as_rel::sim::UpdateStreamConfig;
use hybrid_as_rel::topology::HybridClass;
use hybrid_as_rel::tor::baselines::{
    degree_heuristic_inference, gao_inference, BaselineInference, BaselineInput,
};
use hybrid_as_rel::tor::communities::{CommunityInference, InferenceSource, InferredRelationship};
use hybrid_as_rel::tor::extract::{ExtractedData, ObservedPath};
use hybrid_as_rel::tor::hybrid::HybridFinding;
use hybrid_as_rel::tor::impact::{
    correction_sweep_in, CorrectionStep, ImpactOptions, SweepCache, SweepOptions,
};
use hybrid_as_rel::tor::ingest::{ApplyStats, LiveRib, UpdateStream};
use hybrid_as_rel::types::{
    AsPath, AsPathSegment, Asn, Community, CommunitySet, IpVersion, PathAttributes, PeerId, Prefix,
    Relationship, RelationshipPair, RibEntry,
};

fn arb_relationship() -> impl Strategy<Value = Relationship> {
    prop_oneof![
        Just(Relationship::ProviderToCustomer),
        Just(Relationship::CustomerToProvider),
        Just(Relationship::PeerToPeer),
        Just(Relationship::SiblingToSibling),
    ]
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
            Prefix::V4(hybrid_as_rel::types::Ipv4Net::new_truncated(addr.into(), len))
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
            Prefix::V6(hybrid_as_rel::types::Ipv6Net::new_truncated(addr.into(), len))
        }),
    ]
}

/// The Figure 2 curve computed the obvious way, as `correction_sweep_in`
/// documents it: fix the customer-tree union, the sources and each
/// source's baseline-reachable pairs on the uncorrected graph, then per
/// step apply the correction, recompute every source from scratch with
/// `valley_free_distances` and fold the metrics over the union pairs. No
/// memo and no delta repair.
fn oracle_sweep(
    misinferred: &AsGraph,
    findings: &[HybridFinding],
    options: &ImpactOptions,
) -> Vec<CorrectionStep> {
    let mut graph = misinferred.clone();
    let mut union = customer_tree_union(&graph, IpVersion::V6);
    union.sort();
    if union.len() < 2 {
        let m = tree_union_metrics(&graph, IpVersion::V6, options.source_cap);
        return vec![CorrectionStep {
            corrected: 0,
            link: None,
            avg_path_length: m.avg_path_length,
            diameter: m.diameter,
            reachability: m.reachability(),
        }];
    }
    let index = |graph: &AsGraph, asn: Asn| graph.node(asn).expect("union member").index();
    let members: Vec<usize> = union.iter().map(|&asn| index(&graph, asn)).collect();
    let sources = &union[..options.source_cap.map_or(union.len(), |cap| cap.min(union.len()))];
    let distances = |graph: &AsGraph| -> Vec<Vec<Option<u32>>> {
        sources.iter().map(|&src| valley_free_distances(graph, src, IpVersion::V6)).collect()
    };
    let baseline = distances(&graph);
    let mut steps = vec![(None, baseline.clone())];
    for finding in findings.iter().take(options.top_k) {
        graph.annotate(finding.a, finding.b, IpVersion::V6, finding.relationships.v6);
        steps.push((Some((finding.a, finding.b)), distances(&graph)));
    }
    let mut curve = Vec::new();
    for (corrected, (link, rows)) in steps.into_iter().enumerate() {
        let (mut sum, mut count, mut diameter, mut reachable, mut pairs) =
            (0u64, 0u64, 0, 0u64, 0u64);
        for (si, row) in rows.iter().enumerate() {
            let src = index(&graph, sources[si]);
            for &m in members.iter().filter(|&&m| m != src) {
                pairs += 1;
                reachable += u64::from(row[m].is_some());
                if let (Some(d), Some(_)) = (row[m], baseline[si][m]) {
                    (sum, count, diameter) = (sum + u64::from(d), count + 1, diameter.max(d));
                }
            }
        }
        let avg_path_length = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        let reachability = if pairs == 0 { 0.0 } else { reachable as f64 / pairs as f64 };
        curve.push(CorrectionStep { corrected, link, avg_path_length, diameter, reachability });
    }
    curve
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- bgp-types ------------------------------------------------------

    #[test]
    fn asn_display_parse_roundtrip(raw in any::<u32>()) {
        let asn = Asn(raw);
        prop_assert_eq!(asn.to_string().parse::<Asn>().unwrap(), asn);
        prop_assert_eq!(asn.to_asdot().parse::<Asn>().unwrap(), asn);
    }

    #[test]
    fn community_u32_and_text_roundtrip(raw in any::<u32>()) {
        let c = Community::from_u32(raw);
        prop_assert_eq!(c.as_u32(), raw);
        prop_assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
    }

    #[test]
    fn as_path_display_parse_roundtrip(asns in prop::collection::vec(1u32..1_000_000, 1..12)) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let parsed: AsPath = path.to_string().parse().unwrap();
        prop_assert_eq!(parsed, path);
    }

    #[test]
    fn deprepending_is_idempotent_and_preserves_links(
        asns in prop::collection::vec(1u32..200, 1..20)
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let once = path.deprepended();
        prop_assert_eq!(once.deprepended(), once.clone());
        // Every link of the de-prepended path is a link of the original.
        let original: std::collections::HashSet<_> = path.links().collect();
        for link in once.links() {
            prop_assert!(original.contains(&link));
        }
    }

    #[test]
    fn prefix_text_roundtrip(prefix in arb_prefix()) {
        let parsed: Prefix = prefix.to_string().parse().unwrap();
        prop_assert_eq!(parsed, prefix);
    }

    // ---- mrt wire codec --------------------------------------------------

    #[test]
    fn path_attributes_survive_the_wire(
        asns in prop::collection::vec(1u32..4_000_000, 1..8),
        locpref in prop::option::of(any::<u32>()),
        med in prop::option::of(any::<u32>()),
        communities in prop::collection::vec(any::<u32>(), 0..8),
        prefix in arb_prefix(),
    ) {
        let mut attrs = PathAttributes::with_path(
            AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>()),
        );
        attrs.local_pref = locpref;
        attrs.med = med;
        attrs.communities = communities.iter().copied().map(Community::from_u32).collect::<CommunitySet>();
        let blob = encode_attributes(&attrs, &prefix, AttrContext::TableDumpV2).freeze();
        let decoded = decode_attributes(blob, AttrContext::TableDumpV2).unwrap();
        prop_assert_eq!(decoded.attrs, attrs);
    }

    // ---- communities ------------------------------------------------------

    #[test]
    fn community_set_text_and_wire_roundtrip(raws in prop::collection::vec(any::<u32>(), 0..16)) {
        let set: CommunitySet = raws.iter().copied().map(Community::from_u32).collect();
        // Textual round trip, element by element (the set renders as a
        // space-separated list of `asn:value` communities).
        for c in set.iter() {
            prop_assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
        }
        let text = set.to_string();
        let reparsed: CommunitySet =
            text.split_whitespace().map(|t| t.parse::<Community>().unwrap()).collect();
        prop_assert_eq!(reparsed, set.clone());
        // Wire round trip on both planes, through the shared attribute codec.
        for prefix in ["198.51.100.0/24".parse::<Prefix>().unwrap(), "2001:db8::/32".parse().unwrap()]
        {
            let mut attrs = PathAttributes::with_path("6939 3333".parse().unwrap());
            attrs.communities = set.clone();
            let blob = encode_attributes(&attrs, &prefix, AttrContext::TableDumpV2).freeze();
            let decoded = decode_attributes(blob, AttrContext::TableDumpV2).unwrap();
            prop_assert_eq!(&decoded.attrs.communities, &set);
        }
    }

    #[test]
    fn community_set_is_an_ordered_set(raws in prop::collection::vec(any::<u32>(), 0..24)) {
        let set: CommunitySet = raws.iter().copied().map(Community::from_u32).collect();
        let listed: Vec<Community> = set.iter().collect();
        // Deduplicated ...
        let distinct: std::collections::HashSet<u32> = raws.iter().copied().collect();
        prop_assert_eq!(listed.len(), distinct.len());
        // ... and iterated in sorted order, so serializations are canonical.
        let mut sorted = listed.clone();
        sorted.sort();
        prop_assert_eq!(listed, sorted);
        // Re-inserting every member is a no-op.
        let mut again = set.clone();
        for c in set.iter() {
            prop_assert!(!again.insert(c));
        }
        prop_assert_eq!(again, set);
    }

    // ---- AS-path prepending ----------------------------------------------

    #[test]
    fn prepend_extends_without_disturbing_the_tail(
        asns in prop::collection::vec(1u32..1_000_000, 1..10),
        head in 1u32..1_000_000
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let prepended = path.prepended(Asn(head));
        prop_assert_eq!(prepended.len(), path.len() + 1);
        prop_assert_eq!(prepended.first(), Some(Asn(head)));
        prop_assert_eq!(prepended.origin(), path.origin());
        // The original path's links all survive the prepend.
        let links: std::collections::HashSet<_> = prepended.links().collect();
        for link in path.links() {
            prop_assert!(links.contains(&link));
        }
    }

    #[test]
    fn repeated_prepends_collapse_under_deprepending(
        asns in prop::collection::vec(1u32..1_000_000, 1..10),
        head in 1u32..1_000_000,
        repeats in 1usize..6
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let mut padded = path.prepended(Asn(head));
        for _ in 1..repeats {
            padded.prepend(Asn(head));
        }
        // However many times the head AS prepends itself, the de-prepended
        // path is the one a single export would have produced.
        prop_assert_eq!(padded.deprepended(), path.prepended(Asn(head)).deprepended());
        // Path-selection length counts every prepend (RFC 4271 §9.1.2.2).
        prop_assert_eq!(padded.routing_length(), path.routing_length() + repeats);
        // And de-prepending never invents links.
        let original: std::collections::HashSet<_> = path.prepended(Asn(head)).links().collect();
        for link in padded.links() {
            prop_assert!(original.contains(&link));
        }
    }

    // ---- valley-free rule -------------------------------------------------

    #[test]
    fn canonical_valley_free_paths_are_accepted(
        ups in 0usize..5, peer in any::<bool>(), downs in 0usize..5
    ) {
        let mut rels = vec![Relationship::CustomerToProvider; ups];
        if peer {
            rels.push(Relationship::PeerToPeer);
        }
        rels.extend(std::iter::repeat_n(Relationship::ProviderToCustomer, downs));
        prop_assert!(is_valley_free(&rels));
    }

    #[test]
    fn violation_index_is_a_real_violation(
        rels in prop::collection::vec(arb_relationship(), 0..12)
    ) {
        match first_violation(&rels) {
            None => prop_assert!(is_valley_free(&rels)),
            Some(idx) => {
                prop_assert!(idx < rels.len());
                prop_assert!(!is_valley_free(&rels));
                // Truncating just before the violation yields a valley-free
                // prefix.
                prop_assert!(is_valley_free(&rels[..idx]));
            }
        }
    }

    // ---- annotated graph invariants ----------------------------------------

    #[test]
    fn graph_orientation_is_antisymmetric(
        links in prop::collection::vec((1u32..60, 1u32..60, arb_relationship(), any::<bool>()), 1..60)
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel, v6) in &links {
            if a == b {
                continue;
            }
            let plane = if *v6 { IpVersion::V6 } else { IpVersion::V4 };
            graph.annotate(Asn(*a), Asn(*b), plane, *rel);
        }
        for edge in graph.edges() {
            for plane in IpVersion::BOTH {
                if let Some(rel) = graph.relationship(edge.a, edge.b, plane) {
                    prop_assert_eq!(
                        graph.relationship(edge.b, edge.a, plane),
                        Some(rel.reverse())
                    );
                }
            }
        }
        // Degree sums equal twice the edge count, per plane.
        for plane in IpVersion::BOTH {
            let degree_sum: usize = graph.asns().map(|a| graph.degree(a, plane)).sum();
            prop_assert_eq!(degree_sum, 2 * graph.plane_edge_count(plane));
        }
    }

    #[test]
    fn valley_free_distances_never_exceed_bfs_distances(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..80)
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        let root = graph.asns().next().unwrap();
        let policy = valley_free_distances(&graph, root, IpVersion::V6);
        let plain = hybrid_as_rel::graph::metrics::bfs_distances(&graph, root, IpVersion::V6);
        for (p, b) in policy.iter().zip(plain.iter()) {
            match (p, b) {
                (Some(pd), Some(bd)) => prop_assert!(pd >= bd),
                (Some(_), None) => prop_assert!(false, "policy path without physical path"),
                _ => {}
            }
        }
    }

    #[test]
    fn valley_free_distances_equal_brute_force_shortest_paths(
        links in prop::collection::vec(
            (1u32..=12, 1u32..=12, arb_relationship(), any::<bool>()), 1..24
        )
    ) {
        // Some links are present but unannotated: no path may cross them.
        let mut graph = AsGraph::new();
        for (a, b, rel, annotated) in &links {
            if a == b {
                continue;
            }
            if *annotated {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            } else {
                graph.observe_link(Asn(*a), Asn(*b), IpVersion::V6);
            }
        }
        for root in graph.asns() {
            let fast = valley_free_distances(&graph, root, IpVersion::V6);
            let oracle = brute_force_valley_free_distances(&graph, root, IpVersion::V6);
            prop_assert_eq!(fast, oracle, "root {}", root);
        }
    }
}

/// The valley-free distances the obvious way: enumerate every simple path
/// from `root` over links annotated on `plane`, keep those `is_valley_free`
/// accepts, and take the fewest hops per destination. Exponential, so
/// only for the tiny graphs of the proptest above.
fn brute_force_valley_free_distances(
    graph: &AsGraph,
    root: Asn,
    plane: IpVersion,
) -> Vec<Option<u32>> {
    fn extend(
        graph: &AsGraph,
        plane: IpVersion,
        path: &mut Vec<Asn>,
        rels: &mut Vec<Relationship>,
        best: &mut [Option<u32>],
    ) {
        let last = *path.last().expect("paths start at the root");
        for (next, rel) in graph.neighbors(last, plane) {
            let Some(rel) = rel else { continue };
            if path.contains(&next) {
                continue;
            }
            path.push(next);
            rels.push(rel);
            if is_valley_free(rels) {
                let hops = rels.len() as u32;
                let slot = &mut best[graph.node(next).expect("neighbours are nodes").index()];
                if slot.is_none_or(|d| hops < d) {
                    *slot = Some(hops);
                }
            }
            extend(graph, plane, path, rels, best);
            path.pop();
            rels.pop();
        }
    }
    let mut best = vec![None; graph.node_count()];
    best[graph.node(root).expect("the root is a node").index()] = Some(0);
    extend(graph, plane, &mut vec![root], &mut Vec::new(), &mut best);
    best
}

// ---- sharded execution: parallel == sequential -------------------------
//
// Scenario building is orders of magnitude heavier than a wire round
// trip, so these run with far fewer cases than the codec properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_propagation_matches_sequential_on_random_graphs(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..60),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        let sequential = propagate_origins(&graph, &origins, IpVersion::V6, &options, 1);
        for threads in [2usize, 4] {
            let parallel = propagate_origins(&graph, &origins, IpVersion::V6, &options, threads);
            prop_assert_eq!(&parallel, &sequential, "threads={}", threads);
        }
    }

    #[test]
    fn classic_policy_dispatch_is_invisible_on_random_graphs(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..60),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        deployment_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        use hybrid_as_rel::sim::propagate::propagate_origin_with;
        use hybrid_as_rel::sim::{PolicyDeployment, PolicyEngine};
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        // Under the classic (default) scenario the per-AS policy dispatch
        // must be a pure refactoring artefact: whatever the deployment
        // sampler says, every route equals the one an engine-free classic
        // walk selects — which is what pins the committed goldens to the
        // pre-dispatch propagation, route by route, on arbitrary graphs.
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            deployment: PolicyDeployment {
                fraction: f64::from(deployment_tenths) / 10.0,
                seed: seed ^ 0xd3b107,
            },
            ..Default::default()
        };
        let classic = PolicyEngine::classic();
        for &origin in &origins {
            let dispatched = hybrid_as_rel::sim::propagate_origin(
                &graph, origin, IpVersion::V6, &options,
            );
            let reference =
                propagate_origin_with(&graph, origin, IpVersion::V6, &options, &classic);
            prop_assert_eq!(&dispatched, &reference, "origin={}", origin);
        }
    }

    #[test]
    fn csr_backend_matches_the_map_backend_on_random_graphs(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..60),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        // The reference: the mutable adjacency-map backend the graph is
        // born with. The frozen CSR arrays must serve the exact same
        // neighbor sequences, so propagation and the valley-free walks
        // are equal — not just equivalent — on arbitrary graphs.
        let map_outcomes = propagate_origins(&graph, &origins, IpVersion::V6, &options, 1);
        let mut frozen = graph.clone();
        frozen.freeze();
        prop_assert!(frozen.is_frozen());
        for threads in [1usize, 2] {
            let csr_outcomes =
                propagate_origins(&frozen, &origins, IpVersion::V6, &options, threads);
            prop_assert_eq!(&csr_outcomes, &map_outcomes, "threads={}", threads);
        }
        if let Some(root) = origins.first().copied() {
            prop_assert_eq!(
                valley_free_distances(&frozen, root, IpVersion::V6),
                valley_free_distances(&graph, root, IpVersion::V6)
            );
        }
    }

    #[test]
    fn correction_sweep_matches_the_oracle_on_random_graphs(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..60),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 0..8),
        top_k in 0usize..8,
        source_cap in prop::option::of(1usize..24),
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        // Turn random link indices into hybrid findings whose IPv6
        // relationship gets corrected to a random value; visibility is
        // descending, matching how the hybrid detector sorts its report.
        let findings: Vec<HybridFinding> = corrections
            .iter()
            .enumerate()
            .filter_map(|(i, (idx, corrected))| {
                let (a, b, v4) = links[idx % links.len()];
                (a != b).then(|| HybridFinding {
                    a: Asn(a),
                    b: Asn(b),
                    relationships: RelationshipPair::new(v4, *corrected),
                    class: HybridClass::PeeringV4TransitV6,
                    v6_path_visibility: corrections.len() - i,
                })
            })
            .collect();
        let options = ImpactOptions { top_k, source_cap };
        let expected = oracle_sweep(&graph, &findings, &options);
        for threads in [1usize, 2, 4] {
            for removal_repair in [false, true] {
                let sweep = SweepOptions { concurrency: threads, removal_repair };
                let curve =
                    correction_sweep_in(&graph, &findings, &options, &sweep, &mut SweepCache::new());
                prop_assert_eq!(
                    &curve.steps,
                    &expected,
                    "threads={} removal_repair={}",
                    threads,
                    removal_repair
                );
            }
        }
    }

    #[test]
    fn incremental_delta_bfs_matches_full_recompute_on_random_graphs(
        links in prop::collection::vec((1u32..30, 1u32..30, arb_relationship()), 1..50),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 1..10),
    ) {
        use hybrid_as_rel::graph::delta::{DistanceMap, EdgeCorrection};

        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        // One reusable map per root, driven through the whole correction
        // sequence; after every correction each map must equal a fresh
        // full BFS on the mutated graph.
        let roots: Vec<Asn> = graph.asns().take(6).collect();
        let mut maps: Vec<DistanceMap> =
            roots.iter().map(|&r| DistanceMap::compute(&graph, r, IpVersion::V6)).collect();
        for (idx, corrected) in &corrections {
            let (a, b, _) = links[idx % links.len()];
            if a == b {
                continue;
            }
            let correction =
                EdgeCorrection::observe(&graph, Asn(a), Asn(b), IpVersion::V6, *corrected);
            graph.annotate(Asn(a), Asn(b), IpVersion::V6, *corrected);
            for map in &mut maps {
                map.apply_correction(&graph, &correction);
                let full = valley_free_distances(&graph, map.root(), IpVersion::V6);
                prop_assert_eq!(
                    map.distances(),
                    &full[..],
                    "root {} diverged after correcting {}-{} to {:?}",
                    map.root(),
                    a,
                    b,
                    corrected
                );
            }
        }
    }

    #[test]
    fn removal_repair_matches_full_recompute_on_random_graphs(
        links in prop::collection::vec((1u32..30, 1u32..30, arb_relationship()), 1..50),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 1..10),
    ) {
        use hybrid_as_rel::graph::delta::{DistanceMap, EdgeCorrection, RemovalPolicy};

        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        // The in-place removal repair pitted against a fresh full BFS over
        // random graphs × random correction (removal) sequences: one map
        // per root runs the whole chain under `RemovalPolicy::Repair`,
        // the only path `apply_correction` never takes on its own.
        let roots: Vec<Asn> = graph.asns().take(6).collect();
        let mut maps: Vec<DistanceMap> =
            roots.iter().map(|&r| DistanceMap::compute(&graph, r, IpVersion::V6)).collect();
        for (idx, corrected) in &corrections {
            let (a, b, _) = links[idx % links.len()];
            if a == b {
                continue;
            }
            let correction =
                EdgeCorrection::observe(&graph, Asn(a), Asn(b), IpVersion::V6, *corrected);
            graph.annotate(Asn(a), Asn(b), IpVersion::V6, *corrected);
            for map in &mut maps {
                map.apply_correction_with(&graph, &correction, RemovalPolicy::Repair);
                let full = valley_free_distances(&graph, map.root(), IpVersion::V6);
                prop_assert_eq!(
                    map.distances(),
                    &full[..],
                    "root {} diverged under removal repair after correcting {}-{} to {:?}",
                    map.root(),
                    a,
                    b,
                    corrected
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_scenario_build_yields_identical_rib_snapshots(
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        collector_count in 1usize..3,
        feeders_per_collector in 2usize..6,
        relaxation in any::<bool>(),
    ) {
        let topology = TopologyConfig { seed: topo_seed, ..TopologyConfig::tiny() };
        let sim = SimConfig {
            seed: sim_seed,
            collector_count,
            feeders_per_collector,
            v6_reachability_relaxation: relaxation,
            ..SimConfig::small()
        };
        let sequential = Scenario::build(&topology, &sim.clone().with_concurrency(1));
        for threads in [2usize, 4] {
            let parallel = Scenario::build(&topology, &sim.clone().with_concurrency(threads));
            prop_assert_eq!(
                &parallel.merged_snapshot(),
                &sequential.merged_snapshot(),
                "threads={}",
                threads
            );
        }
    }

    #[test]
    fn replayed_update_stream_matches_the_equivalent_table_dump(
        stream_seed in any::<u64>(),
        windows in 1usize..4,
        events in 4usize..32,
    ) {
        use hybrid_as_rel::tor::ingest::TemporalSweep;

        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let config =
            UpdateStreamConfig { windows, events_per_window: events, seed: stream_seed };
        let stream = UpdateStream::from_windows(scenario.update_stream(&config));
        let base = scenario.pooled_snapshot(1);
        let dictionary = scenario.registry.build_dictionary();
        let pipeline = Pipeline::with_concurrency(1);

        // Streaming replay with delta-repaired caches.
        let outcomes = TemporalSweep::new(pipeline.clone(), true).run(
            &base,
            &dictionary,
            Some(&scenario.truth),
            &stream,
        );
        let replayed = outcomes.last().expect("stream has windows").report.to_json();

        // The equivalent final table dump: apply the same records to a
        // fresh RIB, round-trip its snapshot through the MRT wire format
        // (what a collector would have dumped at time T), and run a
        // one-shot pipeline on the re-read table.
        let mut live = LiveRib::from_snapshot(&base);
        let mut stats = ApplyStats::default();
        for record in stream.windows().iter().flatten() {
            live.apply_record(record, &mut stats);
        }
        let mut dump = Vec::new();
        write_snapshot(&mut dump, &live.snapshot()).expect("encode table dump");
        let reread = read_snapshot_bytes(dump.into()).expect("decode table dump");
        prop_assert_eq!(&reread, &live.snapshot(), "table dump round trip");

        let input =
            PipelineInput { snapshot: reread, dictionary, truth: Some(scenario.truth.clone()) };
        prop_assert_eq!(pipeline.run(input).to_json(), replayed);
    }
}

/// `Some` value in one case out of six, `None` (keep what is there)
/// otherwise, so a patch of several fields often leaves most alone.
fn keep_or<S: Strategy>(values: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..6, values).prop_map(|(keep, value)| (keep == 0).then_some(value))
}

/// A valid TABLE_DUMP_V2 file and BGP4MP update stream of a tiny
/// scenario, encoded once for the hostile-input properties.
fn valid_encodings() -> &'static (Scenario, Vec<u8>, Vec<u8>) {
    static ENCODINGS: OnceLock<(Scenario, Vec<u8>, Vec<u8>)> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let mut dump = Vec::new();
        write_snapshot(&mut dump, &scenario.snapshots[0]).expect("encode table dump");
        let config = UpdateStreamConfig { windows: 2, events_per_window: 16, seed: 5 };
        let stream =
            UpdateStream::from_windows(scenario.update_stream(&config)).to_bytes().to_vec();
        (scenario, dump, stream)
    })
}

/// `valid` with `flips` XOR-ed in (positions wrap around the buffer; a
/// zero mask still flips the low bit), then cut to `cut` bytes if given.
fn mutate(valid: &[u8], flips: &[(usize, u8)], cut: Option<usize>) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for &(at, mask) in flips {
        let len = bytes.len();
        bytes[at % len] ^= mask.max(1);
    }
    if let Some(cut) = cut {
        bytes.truncate(cut % (valid.len() + 1));
    }
    bytes
}

fn run_pipeline(scenario: &Scenario, snapshot: RibSnapshot) {
    let input = PipelineInput {
        snapshot,
        dictionary: scenario.registry.build_dictionary(),
        truth: Some(scenario.truth.clone()),
    };
    let _ = Pipeline::with_concurrency(1).run(input).to_json();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_mrt_input_never_panics_the_decoders_or_the_pipeline(
        dump_flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        dump_cut in keep_or(any::<usize>()),
        stream_flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        stream_cut in keep_or(any::<usize>()),
    ) {
        let (scenario, dump, stream) = valid_encodings();
        // Every outcome is fine except a panic: an error is the expected
        // answer to garbage, and whatever still decodes must survive the
        // whole pipeline.
        if let Ok(snapshot) = read_snapshot_bytes(mutate(dump, &dump_flips, dump_cut).into()) {
            run_pipeline(scenario, snapshot);
        }
        if let Ok(updates) = UpdateStream::from_bytes(mutate(stream, &stream_flips, stream_cut).into()) {
            let mut live = LiveRib::from_snapshot(&scenario.pooled_snapshot(1));
            let mut stats = ApplyStats::default();
            for record in updates.windows().iter().flatten() {
                live.apply_record(record, &mut stats);
            }
            run_pipeline(scenario, live.snapshot());
        }
    }
}

// ---- the allocation-free path walk and the kernels built on it -------------
//
// Each `reference_*` function below is the straightforward allocating form
// of a path or inference kernel: de-prepend into a fresh path, flatten,
// hash. The rewritten kernels must agree with them exactly.

/// One generated AS path segment: `(is_set, starts_with_previous_asn,
/// [(asn seed, run length)])`.
type SegmentSpec = (bool, bool, Vec<(u32, usize)>);

fn arb_segments(max_runs: usize) -> impl Strategy<Value = Vec<SegmentSpec>> {
    prop::collection::vec(
        (
            any::<bool>(),
            any::<bool>(),
            prop::collection::vec((any::<u32>(), 1usize..4), 0..max_runs),
        ),
        0..4,
    )
}

/// Build a path from generated segments: a small ASN alphabet (so runs,
/// loops and repeats across segment boundaries are common) or a large one
/// (so long loop-free paths exist), with an occasional reserved ASN.
/// Prepending runs appear inside both sequences and sets, and a segment
/// may open with the ASN that closed the one before it.
fn build_path(small_alphabet: bool, specs: &[SegmentSpec]) -> AsPath {
    let to_asn = |seed: u32| match seed % 211 {
        0 => Asn(64_512 + seed % 100),
        _ if small_alphabet => Asn(1 + seed % 8),
        _ => Asn(1 + seed % 1_000_000),
    };
    let mut segments = Vec::new();
    let mut last: Option<Asn> = None;
    for (is_set, repeat_boundary, runs) in specs {
        let mut asns = Vec::new();
        if let (true, Some(prev)) = (*repeat_boundary, last) {
            asns.push(prev);
        }
        for &(seed, run) in runs {
            asns.extend(std::iter::repeat_n(to_asn(seed), run));
        }
        asns.truncate(AsPath::MAX_SEGMENT_LEN);
        last = asns.last().copied().or(last);
        segments.push(if *is_set {
            AsPathSegment::Set(asns)
        } else {
            AsPathSegment::Sequence(asns)
        });
    }
    AsPath::from_segments(segments).expect("within wire limits")
}

fn reference_deprepended_segments(path: &AsPath) -> Vec<AsPathSegment> {
    path.segments()
        .iter()
        .map(|seg| match seg {
            AsPathSegment::Sequence(v) => {
                let mut out: Vec<Asn> = Vec::new();
                for &a in v {
                    if out.last() != Some(&a) {
                        out.push(a);
                    }
                }
                AsPathSegment::Sequence(out)
            }
            AsPathSegment::Set(v) => AsPathSegment::Set(v.clone()),
        })
        .collect()
}

fn reference_deprepended_asns(path: &AsPath) -> Vec<Asn> {
    reference_deprepended_segments(path).iter().flat_map(|s| s.asns().to_vec()).collect()
}

fn reference_has_loop(path: &AsPath) -> bool {
    let mut seen = HashSet::new();
    reference_deprepended_asns(path).into_iter().any(|a| !seen.insert(a))
}

fn reference_links(path: &AsPath) -> Vec<(Asn, Asn)> {
    let mut pairs = Vec::new();
    for seg in reference_deprepended_segments(path) {
        if let AsPathSegment::Sequence(v) = seg {
            pairs.extend(v.windows(2).map(|w| (w[0], w[1])));
        }
    }
    pairs
}

fn reference_is_bogus(path: &AsPath) -> bool {
    path.is_empty() || reference_has_loop(path) || path.asns().any(|a| a.is_reserved())
}

/// Gao's heuristic with a hash map per quantity, as first written.
fn reference_gao(paths: &[&ObservedPath]) -> Vec<(Asn, Asn, Relationship)> {
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for p in paths {
        for w in p.path.windows(2) {
            neighbors.entry(w[0]).or_default().insert(w[1]);
            neighbors.entry(w[1]).or_default().insert(w[0]);
        }
    }
    let degree = |asn: Asn| neighbors.get(&asn).map(|s| s.len()).unwrap_or(0);
    let mut votes: HashMap<(Asn, Asn), (usize, usize)> = HashMap::new();
    for p in paths {
        if p.path.len() < 2 {
            continue;
        }
        let mut top_idx = 0;
        for i in 1..p.path.len() {
            if degree(p.path[i]) > degree(p.path[top_idx]) {
                top_idx = i;
            }
        }
        for (i, w) in p.path.windows(2).enumerate() {
            let flipped = w[0] > w[1];
            let key = if flipped { (w[1], w[0]) } else { (w[0], w[1]) };
            let entry = votes.entry(key).or_insert((0, 0));
            if (i >= top_idx) != flipped {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    let mut out = Vec::new();
    for ((a, b), (a_provider, b_provider)) in votes {
        let ratio = degree(a).max(1) as f64 / degree(b).max(1) as f64;
        let total = a_provider + b_provider;
        let balanced = total > 0 && a_provider.max(b_provider) as f64 / total as f64 <= 0.6;
        let rel = if balanced && (0.2..=5.0).contains(&ratio) {
            Relationship::PeerToPeer
        } else if a_provider >= b_provider {
            Relationship::ProviderToCustomer
        } else {
            Relationship::CustomerToProvider
        };
        out.push((a, b, rel));
    }
    out.sort();
    out
}

/// The degree-ratio heuristic with hash-set neighbour sets.
fn reference_degree_heuristic(
    paths: &[&ObservedPath],
    peer_ratio: f64,
) -> Vec<(Asn, Asn, Relationship)> {
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    let mut links = HashSet::new();
    for p in paths {
        for w in p.path.windows(2) {
            neighbors.entry(w[0]).or_default().insert(w[1]);
            neighbors.entry(w[1]).or_default().insert(w[0]);
            links.insert(if w[0] <= w[1] { (w[0], w[1]) } else { (w[1], w[0]) });
        }
    }
    let degree = |asn: Asn| neighbors[&asn].len().max(1);
    let mut out: Vec<_> = links
        .into_iter()
        .map(|(a, b)| {
            let ratio = degree(a) as f64 / degree(b) as f64;
            let rel = if ratio >= peer_ratio {
                Relationship::ProviderToCustomer
            } else if ratio <= 1.0 / peer_ratio {
                Relationship::CustomerToProvider
            } else {
                Relationship::PeerToPeer
            };
            (a, b, rel)
        })
        .collect();
    out.sort();
    out
}

fn sorted_baseline(inference: &BaselineInference) -> Vec<(Asn, Asn, Relationship)> {
    let mut links: Vec<_> = inference.iter().collect();
    links.sort();
    links
}

type LinkKey = (Asn, Asn, IpVersion);

/// `CommunityInference`'s vote bookkeeping with a hash-map tally per link.
#[derive(Default)]
struct ReferenceInference {
    links: HashMap<LinkKey, InferredRelationship>,
    tallies: HashMap<LinkKey, HashMap<Relationship, usize>>,
    conflicted_links: usize,
}

impl ReferenceInference {
    fn key(from: Asn, to: Asn, plane: IpVersion, rel: Relationship) -> (LinkKey, Relationship) {
        if from <= to {
            ((from, to, plane), rel)
        } else {
            ((to, from, plane), rel.reverse())
        }
    }

    fn add_vote(&mut self, from: Asn, to: Asn, plane: IpVersion, rel: Relationship, weight: usize) {
        let (key, rel) = Self::key(from, to, plane, rel);
        *self.tallies.entry(key).or_default().entry(rel).or_insert(0) += weight;
    }

    fn add_locpref_inference(
        &mut self,
        from: Asn,
        to: Asn,
        plane: IpVersion,
        rel: Relationship,
    ) -> bool {
        let (key, rel) = Self::key(from, to, plane, rel);
        if self.links.contains_key(&key) || self.tallies.contains_key(&key) {
            return false;
        }
        let inferred = InferredRelationship {
            relationship: rel,
            votes: 1,
            dissent: 0,
            source: InferenceSource::LocalPref,
        };
        self.links.insert(key, inferred);
        true
    }

    fn resolve(tally: &HashMap<Relationship, usize>) -> Option<(Relationship, usize, usize)> {
        let total: usize = tally.values().sum();
        let (best_rel, best_votes) = tally
            .iter()
            .max_by_key(|(rel, votes)| (**votes, std::cmp::Reverse(**rel)))
            .map(|(r, v)| (*r, *v))?;
        let runner_up =
            tally.iter().filter(|(rel, _)| **rel != best_rel).map(|(_, v)| *v).max().unwrap_or(0);
        if best_votes == runner_up {
            return None;
        }
        Some((best_rel, best_votes, total - best_votes))
    }

    fn resolve_all(&mut self) {
        self.conflicted_links = 0;
        let tallies = &self.tallies;
        self.links.retain(|key, link| {
            link.source == InferenceSource::LocalPref && !tallies.contains_key(key)
        });
        for (key, tally) in tallies {
            match Self::resolve(tally) {
                Some((relationship, votes, dissent)) => {
                    let source = InferenceSource::Communities;
                    self.links.insert(
                        *key,
                        InferredRelationship { relationship, votes, dissent, source },
                    );
                }
                None => self.conflicted_links += 1,
            }
        }
    }

    fn sorted_links(&self) -> Vec<(LinkKey, InferredRelationship)> {
        let mut links: Vec<_> = self.links.iter().map(|(k, v)| (*k, *v)).collect();
        links.sort_by_key(|(key, _)| *key);
        links
    }
}

fn arb_observed_paths() -> impl Strategy<Value = Vec<ObservedPath>> {
    prop::collection::vec(
        (prop::collection::vec(1u32..9, 0..7), 1usize..4).prop_map(|(asns, occurrences)| {
            ObservedPath { path: asns.into_iter().map(Asn).collect(), occurrences }
        }),
        0..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn path_walk_matches_the_allocating_reference(
        small_alphabet in any::<bool>(),
        specs in prop_oneof![arb_segments(6).boxed(), arb_segments(120).boxed()],
    ) {
        let path = build_path(small_alphabet, &specs);
        let walk: Vec<Asn> = path.deprepended_asns().collect();
        prop_assert_eq!(&walk, &reference_deprepended_asns(&path));
        prop_assert_eq!(path.deprepended().asns().collect::<Vec<_>>(), walk);
        prop_assert_eq!(path.has_loop(), reference_has_loop(&path));
        prop_assert_eq!(path.links().collect::<Vec<_>>(), reference_links(&path));
        prop_assert_eq!(path.is_bogus(), reference_is_bogus(&path));
        let entry = RibEntry::new(
            PeerId::new(Asn(1), "192.0.2.1".parse().unwrap()),
            "198.51.100.0/24".parse().unwrap(),
            PathAttributes::with_path(path.clone()),
        );
        prop_assert_eq!(entry.has_bogus_path(), reference_is_bogus(&path));
    }

    #[test]
    fn interned_baselines_match_the_hash_map_reference(
        paths_v4 in arb_observed_paths(),
        paths_v6 in arb_observed_paths(),
        peer_ratio_quarters in 4u32..17,
    ) {
        let peer_ratio = f64::from(peer_ratio_quarters) / 4.0;
        let data = ExtractedData { paths_v4, paths_v6, ..Default::default() };
        for input in [
            BaselineInput::SinglePlane(IpVersion::V4),
            BaselineInput::SinglePlane(IpVersion::V6),
            BaselineInput::BothPlanes,
        ] {
            let paths: Vec<&ObservedPath> = match input {
                BaselineInput::SinglePlane(plane) => data.paths(plane).iter().collect(),
                BaselineInput::BothPlanes => data.paths_v4.iter().chain(&data.paths_v6).collect(),
            };
            prop_assert_eq!(sorted_baseline(&gao_inference(&data, input)), reference_gao(&paths));
            prop_assert_eq!(
                sorted_baseline(&degree_heuristic_inference(&data, input, peer_ratio)),
                reference_degree_heuristic(&paths, peer_ratio)
            );
        }
    }

    #[test]
    fn vote_tally_matches_the_hash_map_reference(
        // (kind, from, to, v6, rel, weight): kinds 0–5 add a vote, 6–8 a
        // LocPrf inference, 9 re-resolves.
        ops in prop::collection::vec(
            (0u8..10, 1u32..6, 1u32..6, any::<bool>(), arb_relationship(), 0usize..3),
            0..48,
        ),
    ) {
        let mut inference = CommunityInference::default();
        let mut reference = ReferenceInference::default();
        for &(kind, from, to, v6, rel, weight) in &ops {
            let (from, to) = (Asn(from), Asn(to));
            let plane = if v6 { IpVersion::V6 } else { IpVersion::V4 };
            match kind {
                0..=5 => {
                    inference.add_vote(from, to, plane, rel, weight);
                    reference.add_vote(from, to, plane, rel, weight);
                }
                6..=8 => prop_assert_eq!(
                    inference.add_locpref_inference(from, to, plane, rel),
                    reference.add_locpref_inference(from, to, plane, rel)
                ),
                _ => {
                    inference.resolve_all();
                    reference.resolve_all();
                }
            }
        }
        inference.resolve_all();
        reference.resolve_all();
        let mut links: Vec<_> = inference.iter().map(|(a, b, plane, link)| ((a, b, plane), *link)).collect();
        links.sort_by_key(|(key, _)| *key);
        prop_assert_eq!(links, reference.sorted_links());
        prop_assert_eq!(inference.conflicted_links, reference.conflicted_links);
    }
}

// Deterministic (non-proptest) checks that belong with the properties.
#[test]
fn relationship_reverse_is_involutive_for_all_variants() {
    for rel in Relationship::ALL {
        assert_eq!(rel.reverse().reverse(), rel);
    }
}

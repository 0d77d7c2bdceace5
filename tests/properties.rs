//! Property-based tests (proptest) on the core data structures and
//! invariants: text and wire round trips, orientation consistency of the
//! annotated graph, the valley-free rule, the parallel-equals-sequential
//! contract of the sharded execution layer, and the Figure 2 sweep engine
//! against a memo-free oracle.

use proptest::prelude::*;

use hybrid_as_rel::graph::customer_tree::{customer_tree_union, tree_union_metrics};
use hybrid_as_rel::graph::valley::{first_violation, is_valley_free, valley_free_distances};
use hybrid_as_rel::graph::AsGraph;
use hybrid_as_rel::mrt::bgp::{decode_attributes, encode_attributes, AttrContext};
use hybrid_as_rel::prelude::{Scenario, SimConfig, TopologyConfig};
use hybrid_as_rel::sim::propagate::{propagate_origins, PropagationOptions};
use hybrid_as_rel::topology::HybridClass;
use hybrid_as_rel::tor::hybrid::HybridFinding;
use hybrid_as_rel::tor::impact::{
    correction_sweep_in, CorrectionStep, ImpactOptions, SweepCache, SweepOptions,
};
use hybrid_as_rel::types::{
    AsPath, Asn, Community, CommunitySet, IpVersion, PathAttributes, Prefix, Relationship,
    RelationshipPair,
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
    fn frontier_parallel_propagation_matches_sequential_on_random_graphs(
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
        // The reference: the fully sequential walk (one origin worker,
        // sequential level scans).
        let sequential = propagate_origins(&graph, &origins, IpVersion::V6, &options, 1);
        for frontier in [2usize, 4] {
            for threads in [1usize, 2] {
                let parallel = propagate_origins(
                    &graph,
                    &origins,
                    IpVersion::V6,
                    &options.with_frontier(frontier),
                    threads,
                );
                prop_assert_eq!(
                    &parallel,
                    &sequential,
                    "frontier={} threads={}",
                    frontier,
                    threads
                );
            }
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
        use hybrid_as_rel::mrt::{read_snapshot_bytes, write_snapshot};
        use hybrid_as_rel::sim::UpdateStreamConfig;
        use hybrid_as_rel::tor::ingest::{ApplyStats, LiveRib, TemporalSweep, UpdateStream};
        use hybrid_as_rel::tor::pipeline::{Pipeline, PipelineInput};

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

        let input = PipelineInput::builder()
            .snapshot(reread, dictionary, Some(scenario.truth.clone()))
            .build()
            .expect("snapshot inputs cannot fail");
        prop_assert_eq!(pipeline.run(input).to_json(), replayed);
    }
}

// Deterministic (non-proptest) checks that belong with the properties.
#[test]
fn relationship_reverse_is_involutive_for_all_variants() {
    for rel in Relationship::ALL {
        assert_eq!(rel.reverse().reverse(), rel);
    }
}

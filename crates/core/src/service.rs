//! Query-facing resident state: everything `hybridd` needs to answer
//! point queries without re-running the pipeline.
//!
//! A [`ResidentState`] is built **once** from a scenario (one
//! [`Pipeline::run_with_artifacts`] — the same work a one-shot experiment
//! does) and then answers relationship, customer-tree, visibility and
//! what-if queries for as long as the process lives. A snapshot keeps
//! only what a query reads: the annotated graph (frozen to CSR), its
//! what-if scratch copy, the sorted universe, the hybrid pairs, the
//! per-AS visibility table and the two rendered JSON bodies — cheap to
//! share behind an `Arc` and cheap to account ([`ResidentState::memory`]).
//!
//! Every query method is a pure function of the query: the only mutable
//! state is the what-if scratch graph, which is mutated and restored under
//! a lock, so concurrent query execution in any order produces
//! byte-identical responses (the service determinism suite pins this).

use std::sync::Mutex;

use asgraph::{customer_tree, AsGraph, DeltaOutcome, DistanceMap, EdgeCorrection, RemovalPolicy};
use bgp_types::{Asn, FastMap, IpVersion, Relationship};

use crate::pipeline::{Pipeline, PipelineInput};
use crate::report::Report;

/// Per-component byte estimate of one resident snapshot's graphs. A
/// snapshot holds two copies of the annotated graph — the one queries
/// read and the what-if scratch copy — and both fields count both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMemory {
    /// Adjacency-map backends of both graph copies.
    pub graph_map_bytes: u64,
    /// Frozen CSR mirrors of both graph copies (0 while unfrozen).
    pub graph_csr_bytes: u64,
}

impl ServiceMemory {
    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.graph_map_bytes + self.graph_csr_bytes
    }
}

/// Per-AS path-visibility statistics on the IPv6 plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisibilityStats {
    /// Distinct IPv6 paths the AS appears on (origin included).
    pub paths_through: u32,
    /// Distinct IPv6 paths the AS originates (last hop).
    pub originated: u32,
    /// Total distinct IPv6 paths in the snapshot.
    pub total_paths: u32,
    /// Hybrid findings incident to the AS.
    pub hybrid_incident: u32,
}

/// The answer to a what-if single-link correction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIfReply {
    /// How the delta engine resolved the correction.
    pub outcome: DeltaOutcome,
    /// Nodes whose shortest valley-free distance from the root changed.
    pub changed: u32,
    /// Valley-free-reachable nodes before the correction.
    pub reachable_before: u32,
    /// Valley-free-reachable nodes after the correction.
    pub reachable_after: u32,
}

/// One scenario's analysis products, flattened for resident serving.
#[derive(Debug)]
pub struct ResidentState {
    report: Report,
    report_json: String,
    summary_json: String,
    annotated: AsGraph,
    universe: Vec<Asn>,
    hybrid_pairs: Vec<(Asn, Asn)>,
    visibility: Vec<(Asn, VisibilityStats)>,
    total_v6_paths: u32,
    scratch: Mutex<AsGraph>,
    memory: ServiceMemory,
}

impl ResidentState {
    /// Run `pipeline` on `scenario` once and flatten the artifacts into a
    /// resident snapshot. This is the only expensive call in the module —
    /// everything else answers from the state it builds.
    pub fn build(scenario: &routesim::Scenario, pipeline: &Pipeline) -> Self {
        let input = PipelineInput::from_scenario_with(scenario, &pipeline.options);
        let (report, artifacts) = pipeline.run_with_artifacts(input);
        let annotated = artifacts.annotated;

        // Fold the per-AS visibility counters over every distinct IPv6
        // path.
        let mut vis: FastMap<Asn, VisibilityStats> = FastMap::default();
        let total_v6_paths = u32::try_from(artifacts.data.paths_v6.len())
            .expect("IPv6 path count exceeds u32 range");
        let mut members = Vec::new();
        for observed in &artifacts.data.paths_v6 {
            members.clear();
            members.extend_from_slice(&observed.path);
            members.sort_unstable();
            members.dedup();
            for &asn in &members {
                vis.entry(asn).or_default().paths_through += 1;
            }
            if let Some(&origin) = observed.path.last() {
                vis.entry(origin).or_default().originated += 1;
            }
        }
        for finding in &report.hybrids.findings {
            for asn in [finding.a, finding.b] {
                vis.entry(asn).or_default().hybrid_incident += 1;
            }
        }
        let mut visibility: Vec<(Asn, VisibilityStats)> = vis
            .into_iter()
            .map(|(asn, mut stats)| {
                stats.total_paths = total_v6_paths;
                (asn, stats)
            })
            .collect();
        visibility.sort_unstable_by_key(|(asn, _)| *asn);

        let mut universe: Vec<Asn> = annotated.asns().collect();
        universe.sort_unstable();
        let hybrid_pairs: Vec<(Asn, Asn)> =
            report.hybrids.findings.iter().map(|f| (f.a, f.b)).collect();

        let report_json = report.to_json();
        let summary_json =
            serde_json::to_string_pretty(&report.dataset).expect("summary serializes");
        let scratch = annotated.clone();
        let (served, copy) = (annotated.memory_breakdown(), scratch.memory_breakdown());
        let memory = ServiceMemory {
            graph_map_bytes: (served.map_bytes + copy.map_bytes) as u64,
            graph_csr_bytes: (served.csr_bytes + copy.csr_bytes) as u64,
        };
        ResidentState {
            report,
            report_json,
            summary_json,
            annotated,
            universe,
            hybrid_pairs,
            visibility,
            total_v6_paths,
            scratch: Mutex::new(scratch),
            memory,
        }
    }

    /// The report of the pipeline run the snapshot was built from.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// The report rendered as pretty JSON (precomputed; byte-identical to
    /// `Report::to_json` on a fresh run of the same scenario).
    pub fn report_json(&self) -> &str {
        &self.report_json
    }

    /// The dataset summary rendered as pretty JSON.
    pub fn summary_json(&self) -> &str {
        &self.summary_json
    }

    /// Every AS in the snapshot, sorted ascending.
    pub fn universe(&self) -> &[Asn] {
        &self.universe
    }

    /// The hybrid findings as `(a, b)` pairs, in report order (visibility
    /// descending).
    pub fn hybrid_pairs(&self) -> &[(Asn, Asn)] {
        &self.hybrid_pairs
    }

    /// Per-component byte estimate of this snapshot.
    pub fn memory(&self) -> ServiceMemory {
        self.memory
    }

    /// The inferred relationship `a → b` on `plane`, from the annotated
    /// graph the valley analysis walked (`None` when the link is absent or
    /// unclassified).
    pub fn relationship(&self, a: Asn, b: Asn, plane: IpVersion) -> Option<Relationship> {
        self.annotated.relationship(a, b, plane)
    }

    /// The customer tree of `root` on `plane`, sorted ascending (empty
    /// when the root is unknown or has no customers).
    pub fn customer_tree(&self, root: Asn, plane: IpVersion) -> Vec<Asn> {
        customer_tree(&self.annotated, root, plane)
    }

    /// Per-AS IPv6 visibility statistics (all-zero — except the total —
    /// for ASes that appear on no path).
    pub fn visibility(&self, asn: Asn) -> VisibilityStats {
        match self.visibility.binary_search_by_key(&asn, |(a, _)| *a) {
            Ok(i) => self.visibility[i].1,
            Err(_) => {
                VisibilityStats { total_paths: self.total_v6_paths, ..VisibilityStats::default() }
            }
        }
    }

    /// Answer a what-if single-link correction: with the `a`–`b`
    /// relationship on `plane` set to `new`, how do the shortest
    /// valley-free distances from `root` change?
    ///
    /// Rides the delta engine as a point-query accelerator: the pre-change
    /// distance map is one fresh [`DistanceMap::compute`], and the
    /// correction is applied with [`RemovalPolicy::Repair`], so a full
    /// rebuild only happens when [`DeltaOutcome`] genuinely demands one.
    /// The scratch graph is mutated and restored under a lock; the
    /// snapshot itself is never changed.
    pub fn what_if(
        &self,
        a: Asn,
        b: Asn,
        plane: IpVersion,
        new: Relationship,
        root: Asn,
    ) -> Result<WhatIfReply, String> {
        let mut g = self.scratch.lock().expect("what-if scratch lock poisoned");
        if !g.contains(root) {
            return Err(format!("unknown root AS{root}"));
        }
        if !g.has_link(a, b, plane) {
            return Err(format!("no {plane} link between AS{a} and AS{b}"));
        }
        let mut map = DistanceMap::compute(&g, root, plane);
        let before_dists: Vec<Option<u32>> = map.distances().to_vec();

        let old = g.relationship(a, b, plane);
        let correction = EdgeCorrection::observe(&g, a, b, plane, new);
        g.annotate(a, b, plane, new);
        let outcome = map.apply_correction_with(&g, &correction, RemovalPolicy::Repair);

        // Restore the scratch graph exactly (annotation-only mutations, so
        // a frozen mirror stays frozen and in sync).
        match old {
            Some(rel) => {
                g.annotate(a, b, plane, rel);
            }
            None => g.clear_relationship(a, b, plane),
        }

        let after_dists = map.distances();
        let changed =
            before_dists.iter().zip(after_dists).filter(|(before, after)| before != after).count();
        let count_reachable =
            |d: &[Option<u32>]| u32::try_from(d.iter().filter(|d| d.is_some()).count()).unwrap();
        Ok(WhatIfReply {
            outcome,
            changed: u32::try_from(changed).expect("node count exceeds u32 range"),
            reachable_before: count_reachable(&before_dists),
            reachable_after: count_reachable(after_dists),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesim::{Scenario, SimConfig};
    use topogen::TopologyConfig;

    fn resident() -> (Scenario, ResidentState) {
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let state = ResidentState::build(&scenario, &Pipeline::default());
        (scenario, state)
    }

    #[test]
    fn resident_state_matches_a_fresh_pipeline_run() {
        let (scenario, state) = resident();
        let pipeline = Pipeline::default();
        let fresh = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
        assert_eq!(state.report_json(), fresh.to_json(), "one build, same bytes");
        assert!(state.summary_json().contains("ipv6_paths"));
        assert!(!state.universe().is_empty());
        // Both graph copies count: the served graph and the what-if scratch.
        let scratch = state.scratch.lock().unwrap().memory_footprint();
        assert!(scratch > 0);
        assert_eq!(state.memory().total() as usize, state.annotated.memory_footprint() + scratch);
    }

    #[test]
    fn queries_answer_from_the_annotated_graph() {
        let (_, state) = resident();
        // Every hybrid pair has a classified relationship on both planes.
        for &(a, b) in state.hybrid_pairs() {
            assert!(state.relationship(a, b, IpVersion::V4).is_some());
            assert!(state.relationship(a, b, IpVersion::V6).is_some());
        }
        // Customer trees are sorted and exclude the root.
        let root = state.universe()[0];
        let tree = state.customer_tree(root, IpVersion::V6);
        assert!(tree.windows(2).all(|w| w[0] < w[1]));
        assert!(!tree.contains(&root));
        // Unknown ASes still answer (empty / zero) rather than panic.
        assert!(state.customer_tree(Asn(4_000_000_000), IpVersion::V6).is_empty());
        assert_eq!(state.visibility(Asn(4_000_000_000)).paths_through, 0);
    }

    #[test]
    fn visibility_counts_are_consistent() {
        let (scenario, state) = resident();
        let input = PipelineInput::from_scenario_with(&scenario, &Pipeline::default().options);
        let data = crate::extract::extract(&input.snapshot);
        for &asn in state.universe().iter().take(50) {
            let expected = data.paths_v6.iter().filter(|p| p.path.contains(&asn)).count();
            assert_eq!(state.visibility(asn).paths_through as usize, expected, "AS{asn}");
        }
    }

    /// Up to `count` roots per plane: the highest-degree ASes (degree
    /// descending, ASN ascending), then every k-th AS of the universe.
    fn oracle_roots(state: &ResidentState, plane: IpVersion, count: usize) -> Vec<Asn> {
        let universe = state.universe();
        let mut by_degree: Vec<(usize, Asn)> =
            universe.iter().map(|&asn| (state.annotated.degree(asn, plane), asn)).collect();
        by_degree.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        let mut roots: Vec<Asn> = by_degree.iter().take(count / 2).map(|&(_, asn)| asn).collect();
        let stride = (universe.len() / (count - roots.len())).max(1);
        roots.extend(universe.iter().step_by(stride).take(count - roots.len()));
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    #[test]
    fn what_if_is_exact_and_leaves_no_trace() {
        let (_, state) = resident();
        assert!(!state.hybrid_pairs().is_empty(), "tiny scenario has hybrids");
        let reachable =
            |d: &[Option<u32>]| u32::try_from(d.iter().filter(|d| d.is_some()).count()).unwrap();
        for plane in [IpVersion::V4, IpVersion::V6] {
            let roots = oracle_roots(&state, plane, 24);
            assert!(roots.len() >= 20, "{plane}: {} roots", roots.len());
            // Every hybrid pair, plus every k-th link of the plane: the
            // hybrids alone only ever flip reachability at tiny scale, the
            // sampled links also move distances of still-reachable nodes.
            let plane_links: Vec<(Asn, Asn)> =
                state.annotated.plane_edges(plane).map(|e| (e.a, e.b)).collect();
            let stride = (plane_links.len() / 12).max(1);
            let links = state.hybrid_pairs().iter().chain(plane_links.iter().step_by(stride));
            // Oracle: one fresh layered search on the unchanged graph and
            // one on a corrected copy, compared node by node.
            let before: Vec<DistanceMap> = roots
                .iter()
                .map(|&root| DistanceMap::compute(&state.annotated, root, plane))
                .collect();
            for &(a, b) in links {
                for new in Relationship::ALL {
                    let mut corrected = state.annotated.clone();
                    corrected.annotate(a, b, plane, new);
                    for (&root, before) in roots.iter().zip(&before) {
                        let reply = state.what_if(a, b, plane, new, root).expect("link exists");
                        let after = DistanceMap::compute(&corrected, root, plane);
                        let changed = before
                            .distances()
                            .iter()
                            .zip(after.distances())
                            .filter(|(x, y)| x != y)
                            .count();
                        let case = format!("{plane} AS{a}-AS{b} {new:?} root AS{root}");
                        assert_eq!(reply.changed as usize, changed, "{case}");
                        assert_eq!(reply.reachable_before, reachable(before.distances()), "{case}");
                        assert_eq!(reply.reachable_after, reachable(after.distances()), "{case}");
                        if reply.outcome == DeltaOutcome::Unchanged {
                            assert_eq!(reply.changed, 0, "{case}");
                        }
                    }
                }
            }
        }
        // The scratch graph is restored after every query.
        let scratch = state.scratch.lock().unwrap();
        for edge in state.annotated.edges() {
            for plane in [IpVersion::V4, IpVersion::V6] {
                let (a, b) = (edge.a, edge.b);
                let served = state.relationship(a, b, plane);
                assert_eq!(scratch.relationship(a, b, plane), served, "{plane} AS{a}-AS{b}");
            }
        }
        drop(scratch);
        // Errors for unknown roots and absent links.
        let (a, b) = state.hybrid_pairs()[0];
        let root = state.universe()[0];
        assert!(state
            .what_if(a, b, IpVersion::V6, Relationship::PeerToPeer, Asn(4_000_000_000))
            .is_err());
        assert!(state
            .what_if(Asn(4_000_000_000), b, IpVersion::V6, Relationship::PeerToPeer, root)
            .is_err());
    }

    #[test]
    fn what_if_uses_delta_repair_when_permitted() {
        let (_, state) = resident();
        let &(a, b) = state.hybrid_pairs().first().expect("tiny scenario has hybrids");
        let root = state.universe()[0];
        let current = state.relationship(a, b, IpVersion::V6).expect("hybrids are classified");
        // Re-asserting the current relationship removes no transitions, so
        // the delta engine must not fall back to a full rebuild.
        let reply = state.what_if(a, b, IpVersion::V6, current, root).expect("link exists");
        assert_ne!(reply.outcome, DeltaOutcome::FullRebuild, "no-op correction forced a rebuild");
        assert_eq!(reply.changed, 0);
        assert_eq!(reply.reachable_before, reply.reachable_after);
    }
}

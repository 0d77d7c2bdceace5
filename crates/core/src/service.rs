//! Query-facing resident state: everything `hybridd` needs to answer
//! point queries without re-running the pipeline.
//!
//! A [`ResidentState`] is built **once** from a scenario (one
//! [`Pipeline::run_with_artifacts`] — the same work a one-shot experiment
//! does) and then answers relationship, customer-tree, visibility and
//! what-if queries for as long as the process lives. The storage is
//! arena-backed and flat on purpose: a snapshot is a handful of large
//! allocations (the frozen CSR graph, one [`SliceArena`] of every distinct
//! IPv6 path, two [`LabelArena`] strides of hot-root BFS labels), cheap to
//! share behind an `Arc` and cheap to account — [`ResidentState::memory`]
//! reports the per-component bytes the bench gauges record.
//!
//! Every query method is a pure function of the query: the only mutable
//! state is the what-if scratch graph, which is mutated and restored under
//! a lock, so concurrent query execution in any order produces
//! byte-identical responses (the service determinism suite pins this).

use std::collections::HashMap;
use std::sync::Mutex;

use asgraph::{
    customer_tree, AsGraph, DeltaOutcome, DistanceMap, EdgeCorrection, LabelArena, RemovalPolicy,
    SliceArena,
};
use bgp_types::{Asn, IpVersion, Relationship};

use crate::pipeline::{Pipeline, PipelineInput};
use crate::report::Report;

/// How many of the highest-degree ASes per plane get precomputed BFS
/// label strides in the [`LabelArena`]. A what-if query rooted at a hot
/// AS copies its stride instead of running a fresh layered search.
pub const HOT_ROOTS: usize = 32;

/// Per-component byte estimate of one resident snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMemory {
    /// Adjacency-map backend of the annotated graph.
    pub graph_map_bytes: u64,
    /// Frozen CSR mirror of the annotated graph (0 while thawed).
    pub graph_csr_bytes: u64,
    /// Flattened per-origin RIB path arena.
    pub rib_arena_bytes: u64,
    /// Precomputed hot-root BFS label arenas (both planes).
    pub label_arena_bytes: u64,
}

impl ServiceMemory {
    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.graph_map_bytes + self.graph_csr_bytes + self.rib_arena_bytes + self.label_arena_bytes
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
    paths: SliceArena<Asn>,
    labels: [LabelArena; 2],
    scratch: Mutex<AsGraph>,
    memory: ServiceMemory,
}

impl ResidentState {
    /// Run `pipeline` on `scenario` once and flatten the artifacts into a
    /// resident snapshot. This is the only expensive call in the module —
    /// everything else answers from the state it builds.
    pub fn build(scenario: &routesim::Scenario, pipeline: &Pipeline) -> Self {
        let input = PipelineInput::from_scenario_with(scenario, &pipeline.options);
        Self::from_input(input, pipeline)
    }

    /// [`build`](Self::build) from an already-assembled input — the shape
    /// a streaming daemon uses: it keeps a [`crate::ingest::LiveRib`]
    /// resident, applies an update window, and rebuilds the snapshot from
    /// the live table instead of re-propagating a scenario.
    pub fn from_input(input: PipelineInput, pipeline: &Pipeline) -> Self {
        let (report, artifacts) = pipeline.run_with_artifacts(input);
        let annotated = artifacts.annotated;

        // Flatten every distinct IPv6 path into one arena (extraction
        // already sorted them, so ids are deterministic) and fold the
        // per-AS visibility counters while walking it.
        let mut paths = SliceArena::new();
        let mut vis: HashMap<Asn, VisibilityStats> = HashMap::new();
        let total_v6_paths = u32::try_from(artifacts.data.paths_v6.len())
            .expect("IPv6 path count exceeds u32 range");
        let mut members = Vec::new();
        for observed in &artifacts.data.paths_v6 {
            paths.push(&observed.path);
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
        paths.shrink_to_fit();

        // Hot roots: the highest-degree ASes per plane (degree descending,
        // ASN ascending as the tie-break — fully deterministic).
        let labels = [IpVersion::V4, IpVersion::V6].map(|plane| {
            let mut by_degree: Vec<(usize, Asn)> =
                annotated.asns().map(|asn| (annotated.degree(asn, plane), asn)).collect();
            by_degree.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let hot: Vec<Asn> = by_degree.into_iter().take(HOT_ROOTS).map(|(_, a)| a).collect();
            LabelArena::build(&annotated, plane, &hot)
        });

        let mut universe: Vec<Asn> = annotated.asns().collect();
        universe.sort_unstable();
        let hybrid_pairs: Vec<(Asn, Asn)> =
            report.hybrids.findings.iter().map(|f| (f.a, f.b)).collect();

        let breakdown = annotated.memory_breakdown();
        let memory = ServiceMemory {
            graph_map_bytes: breakdown.map_bytes as u64,
            graph_csr_bytes: breakdown.csr_bytes as u64,
            rib_arena_bytes: paths.heap_bytes() as u64,
            label_arena_bytes: labels.iter().map(|l| l.heap_bytes() as u64).sum(),
        };

        let report_json = report.to_json();
        let summary_json =
            serde_json::to_string_pretty(&report.dataset).expect("summary serializes");
        let scratch = Mutex::new(annotated.clone());
        ResidentState {
            report,
            report_json,
            summary_json,
            annotated,
            universe,
            hybrid_pairs,
            visibility,
            total_v6_paths,
            paths,
            labels,
            scratch,
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

    /// The flattened distinct-IPv6-path arena.
    pub fn paths(&self) -> &SliceArena<Asn> {
        &self.paths
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
    /// distance map comes from the hot-root [`LabelArena`] when the root
    /// is precomputed (a stride copy, no BFS), and the correction is
    /// applied with [`RemovalPolicy::Repair`], so a full rebuild only
    /// happens when [`DeltaOutcome`] genuinely demands one. The scratch
    /// graph is mutated and restored under a lock; the snapshot itself is
    /// never changed.
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
        let plane_idx = match plane {
            IpVersion::V4 => 0,
            IpVersion::V6 => 1,
        };
        let before = self.labels[plane_idx]
            .distance_map(root)
            .unwrap_or_else(|| DistanceMap::compute(&g, root, plane));
        let before_dists: Vec<Option<u32>> = before.distances().to_vec();

        let old = g.relationship(a, b, plane);
        let correction = EdgeCorrection::observe(&g, a, b, plane, new);
        g.annotate(a, b, plane, new);
        let mut map = before;
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
        let input = PipelineInput::builder().scenario(&scenario).build().unwrap();
        let fresh = Pipeline::default().run(input);
        assert_eq!(state.report_json(), fresh.to_json(), "one build, same bytes");
        assert!(state.summary_json().contains("ipv6_paths"));
        assert!(!state.universe().is_empty());
        assert!(state.memory().total() > 0);
        assert!(state.memory().rib_arena_bytes > 0);
        assert!(state.memory().label_arena_bytes > 0);
        assert_eq!(state.paths().len() as u32, state.visibility(state.universe()[0]).total_paths);
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
        let input = PipelineInput::builder().scenario(&scenario).build().unwrap();
        let data = crate::extract::extract(&input.snapshot);
        for &asn in state.universe().iter().take(50) {
            let expected = data.paths_v6.iter().filter(|p| p.path.contains(&asn)).count();
            assert_eq!(state.visibility(asn).paths_through as usize, expected, "AS{asn}");
        }
    }

    #[test]
    fn what_if_is_exact_and_leaves_no_trace() {
        let (_, state) = resident();
        let &(a, b) = state.hybrid_pairs().first().expect("tiny scenario has hybrids");
        let root = state.universe()[0];
        let before = state.relationship(a, b, IpVersion::V6);
        for new in Relationship::ALL {
            let reply = state.what_if(a, b, IpVersion::V6, new, root).expect("link exists");
            // Cross-check against a from-scratch recomputation.
            let mut g = state.scratch.lock().unwrap().clone();
            g.annotate(a, b, IpVersion::V6, new);
            let fresh = DistanceMap::compute(&g, root, IpVersion::V6);
            let reachable =
                u32::try_from(fresh.distances().iter().filter(|d| d.is_some()).count()).unwrap();
            assert_eq!(reply.reachable_after, reachable, "{new:?}");
        }
        // The scratch graph is restored after every query.
        assert_eq!(state.relationship(a, b, IpVersion::V6), before);
        let scratch_rel = state.scratch.lock().unwrap().relationship(a, b, IpVersion::V6);
        assert_eq!(scratch_rel, before);
        // Errors for unknown roots and absent links.
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
